package flat

import (
	"math/rand"
	"testing"
)

func TestPutGetGrow(t *testing.T) {
	m := New[int](4)
	const n = 1000
	for i := 0; i < n; i++ {
		m.Put(uint64(i)*64, i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := m.Get(uint64(i) * 64)
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i*64, v, ok)
		}
	}
	if _, ok := m.Get(uint64(n) * 64); ok {
		t.Fatal("Get of absent key reported present")
	}
}

func TestZeroKey(t *testing.T) {
	m := New[string](0)
	if _, ok := m.Get(0); ok {
		t.Fatal("empty map claims key 0")
	}
	m.Put(0, "zero")
	if v, ok := m.Get(0); !ok || v != "zero" {
		t.Fatalf("Get(0) = %q,%v", v, ok)
	}
}

func TestPutReplaces(t *testing.T) {
	m := New[int](0)
	m.Put(7, 1)
	m.Put(7, 2)
	if m.Len() != 1 {
		t.Fatalf("Len = %d after double put, want 1", m.Len())
	}
	if v, _ := m.Get(7); v != 2 {
		t.Fatalf("Get = %d, want 2", v)
	}
}

func TestPtrMutation(t *testing.T) {
	m := New[int](0)
	m.Put(42, 10)
	*m.Ptr(42)++
	if v, _ := m.Get(42); v != 11 {
		t.Fatalf("Get = %d after Ptr mutation, want 11", v)
	}
	if m.Ptr(43) != nil {
		t.Fatal("Ptr of absent key non-nil")
	}
}

func TestClearDoesNotAllocate(t *testing.T) {
	m := New[int](64)
	fill := func() {
		for i := 0; i < 64; i++ {
			m.Put(uint64(i)*64, i)
		}
	}
	fill()
	allocs := testing.AllocsPerRun(100, func() {
		m.Clear()
		fill()
	})
	if allocs != 0 {
		t.Fatalf("clear-and-refill allocates %v/op, want 0", allocs)
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after Clear", m.Len())
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("cleared map still claims a key")
	}
}

func TestForEachCoversAll(t *testing.T) {
	m := New[uint64](0)
	want := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		k := rng.Uint64()
		m.Put(k, k*2)
		want[k] = k * 2
	}
	got := map[uint64]uint64{}
	m.ForEach(func(k uint64, v *uint64) { got[k] = *v })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("ForEach got[%d] = %d, want %d", k, got[k], v)
		}
	}
}

// Differential check against the runtime map under random insert/update
// workloads.
func TestDifferentialVsRuntimeMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New[int](0)
	ref := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(2000)) * 64
		switch rng.Intn(3) {
		case 0:
			m.Put(k, i)
			ref[k] = i
		case 1:
			p, existed := m.Upsert(k)
			if _, rok := ref[k]; existed != rok || (!existed && *p != 0) {
				t.Fatalf("op %d: Upsert(%d) = %d,%v want existed=%v", i, k, *p, existed, rok)
			}
			*p += i
			ref[k] += i
		case 2:
			v, ok := m.Get(k)
			rv, rok := ref[k]
			if ok != rok || v != rv {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, v, ok, rv, rok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, m.Len(), len(ref))
		}
	}
}
