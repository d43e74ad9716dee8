package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// spanNames are the public-call spans the per-layer report summarises.
var spanNames = []string{"workloads_gen", "systems_run", "litmus_check", "http_request"}

// span is one timed call into a layer, made from the benchmark's side.
// Spans of one cell share its cell id; Parent is 0 for a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Cell    int    `json:"cell"`
	Key     string `json:"key"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// so the untraced loop pays only a nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cells int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextCell returns a fresh cell id.
func (t *tracer) nextCell() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cells++
	return t.cells
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, cell int, key string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Cell: cell, Key: key, Name: name, StartNS: now, EndNS: -1,
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// durationsMS lists the durations of every closed span called name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostLayers are the groups of the host-time split: the repository's
// packages under fusion/internal (obs folded into litmus, whose hook it
// is), the Go runtime (allocation, GC, maps, scheduling) and the rest.
var hostLayers = []string{
	"sim", "accel", "acc", "mesi", "cache", "interconnect", "dram", "host",
	"scratchpad", "vm", "energy", "flat", "stats", "workloads", "litmus",
	"service", "systems", "runtime", "other",
}

// layerOf maps a profiled function name to its host-time group.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "fusion/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "obs" {
			return "litmus"
		}
		for _, l := range hostLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profileByLayer reads a CPU profile written by runtime/pprof and sums
// each sample's CPU time into the group of its innermost function.
func profileByLayer(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	prof, err := parseProfile(pb)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range prof.samples {
		if len(s.locs) == 0 || len(s.values) < 2 {
			continue
		}
		name := "?"
		if fid, ok := prof.locLeaf[s.locs[0]]; ok {
			name = prof.strings[prof.funcName[fid]]
		}
		out[layerOf(name)] += float64(s.values[1]) / 1e9 // values: samples, cpu ns
	}
	return out, nil
}

// profile is the part of a pprof profile.proto the host-time split needs.
type profile struct {
	samples  []pbSample
	locLeaf  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]int64  // function id -> string table index
	strings  []string
}

type pbSample struct {
	locs   []uint64
	values []int64
}

// pbField is one decoded protobuf field: a varint or a length-delimited
// payload, the only wire types runtime/pprof writes.
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
}

// pbFields decodes one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			f.varint, b = v, b[n:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated integer field, packed or not.
func varints(f pbField) ([]uint64, error) {
	if f.bytes == nil {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes samples (field 2), locations (4), functions (5)
// and the string table (6) of a profile.proto message.
func parseProfile(b []byte) (*profile, error) {
	top, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &profile{locLeaf: make(map[uint64]uint64), funcName: make(map[uint64]int64)}
	for _, f := range top {
		switch f.num {
		case 2:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s pbSample
			for _, sf := range fs {
				if sf.num != 1 && sf.num != 2 {
					continue // labels
				}
				vs, err := varints(sf)
				if err != nil {
					return nil, err
				}
				if sf.num == 1 {
					s.locs = append(s.locs, vs...)
					continue
				}
				for _, v := range vs {
					s.values = append(s.values, int64(v))
				}
			}
			p.samples = append(p.samples, s)
		case 4:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var leaf uint64
			haveLeaf := false
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.varint
				case 4: // Line; the first is the innermost inlined frame
					if haveLeaf {
						continue
					}
					line, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == 1 {
							leaf, haveLeaf = x.varint, true
						}
					}
				}
			}
			if haveLeaf {
				p.locLeaf[id] = leaf
			}
		case 5:
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.varint
				case 2:
					name = int64(ff.varint)
				}
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside string table")
		}
	}
	return p, nil
}
