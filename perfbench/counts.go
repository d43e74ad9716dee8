package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// counts sums the simulated work of one pass, layer by layer, from each
// cell's Result.Stats. Every value is deterministic: a change that only
// speeds up the simulator leaves all of them identical.
type counts struct {
	raw      map[string]int64
	energyPJ float64
}

func newCounts() *counts { return &counts{raw: make(map[string]int64)} }

// statKey maps one Result.Stats counter to the layer sum it feeds, or ""
// for counters no metric uses.
func statKey(name string) string {
	f := strings.Split(name, ".")
	last := f[len(f)-1]
	switch {
	case strings.HasPrefix(f[0], "axc") && len(f) == 2:
		switch last {
		case "loads", "stores":
			return "accel.mem_ops"
		case "int_ops", "fp_ops":
			return "accel.compute_ops"
		}
	case f[0] == "l0x" && len(f) == 3:
		switch last {
		case "accesses", "hits", "misses", "self_invalidations":
			return "l0x." + last
		}
	case f[0] == "l1x" || f[0] == "sharedl1x":
		switch last {
		case "accesses", "misses", "stall_gtime":
			return "l1x." + last
		case "bypass_alloc", "bypass_deadline":
			return "l1x.bypass"
		}
	case f[0] == "dir":
		switch last {
		case "GetS", "GetM", "PutM", "PutE", "DMARead", "DMAWrite":
			return "dir.requests"
		case "fwd":
			return "dir.fwd"
		}
	case f[0] == "l2" && (last == "accesses" || last == "misses"):
		return "l2." + last
	case f[0] == "hostl1" && (last == "accesses" || last == "mshr_full"):
		return "hostl1." + last
	case (f[0] == "hostlink" || f[0] == "link" || f[0] == "sharedswitch") &&
		(last == "msgs" || last == "flits"):
		return "link." + last
	case f[0] == "dram":
		switch last {
		case "reads", "writes", "row_hit", "row_miss":
			return "dram." + last
		}
	case strings.HasPrefix(f[0], "spad") && last == "accesses":
		return "spad.accesses"
	case (f[0] == "axtlb" || f[0] == "sharedtlb") && (last == "lookups" || last == "misses"):
		return "axtlb." + last
	case name == "hostcore.committed":
		return name
	}
	return ""
}

// addRun folds one cell's result into the pass totals.
func (c *counts) addRun(b *workloads.Benchmark, res *systems.Result) {
	res.Stats.ForEach(func(name string, v int64) {
		if k := statKey(name); k != "" {
			c.raw[k] += v
		}
	})
	c.raw["dma.transfers"] += res.DMATransfers
	c.raw["dma.bytes"] += res.DMABytes
	c.raw["workloads.trace_ops"] += traceOps(b)
	c.energyPJ += res.Energy.Total()
}

// traceOps counts the program's operations: loads, stores and compute ops
// of every iteration of every phase.
func traceOps(b *workloads.Benchmark) int64 {
	var n int64
	for i := range b.Program.Phases {
		for _, it := range b.Program.Phases[i].Inv.Iterations {
			n += int64(len(it.Loads) + len(it.Stores) + it.IntOps + it.FPOps)
		}
	}
	return n
}

// countNames are the per-layer count metrics, in report order.
var countNames = []string{
	"accel.mem_ops", "accel.compute_ops",
	"l0x.accesses", "l0x.self_invalidations",
	"l1x.accesses", "l1x.stall_gtime", "l1x.bypass",
	"dir.requests", "dir.fwd",
	"link.msgs", "link.flits",
	"dram.reads", "dram.writes",
	"spad.accesses", "dma.transfers", "dma.bytes",
	"axtlb.lookups", "hostcore.committed",
	"workloads.trace_ops",
	"litmus.observations", "litmus.violations",
}

// metrics returns every simulated-count metric of the pass.
func (c *counts) metrics() map[string]metric {
	m := make(map[string]metric)
	for _, k := range countNames {
		unit := "count"
		if k == "dma.bytes" {
			unit = "bytes"
		}
		m[k] = metric{float64(c.raw[k]), unit}
	}
	r := c.raw
	m["l0x.hit_ratio"] = ratio(r["l0x.hits"], r["l0x.hits"]+r["l0x.misses"])
	m["l1x.miss_ratio"] = ratio(r["l1x.misses"], r["l1x.accesses"])
	m["l2.miss_ratio"] = ratio(r["l2.misses"], r["l2.accesses"])
	m["hostl1.retry_ratio"] = ratio(r["hostl1.mshr_full"], r["hostl1.accesses"])
	m["dram.row_hit_ratio"] = ratio(r["dram.row_hit"], r["dram.row_hit"]+r["dram.row_miss"])
	m["axtlb.miss_ratio"] = ratio(r["axtlb.misses"], r["axtlb.lookups"])
	m["energy.pj"] = metric{c.energyPJ, "pJ"}
	return m
}

// ratio is n/d as a ratio metric, 0 when d is 0.
func ratio(n, d int64) metric {
	if d == 0 {
		return metric{0, "ratio"}
	}
	return metric{float64(n) / float64(d), "ratio"}
}

// cellDigest renders one cell's simulated result: cycles, the bits of its
// energy total, and every stats counter in name order.
func cellDigest(key string, res *systems.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s cycles=%d energy=%x\n", key, res.Cycles, math.Float64bits(res.Energy.Total()))
	names := append([]string(nil), res.Stats.Names()...)
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%s=%d\n", n, res.Stats.Get(n))
	}
	return sb.String()
}

// digestOf hashes per-cell digests in key order, so the digest does not
// depend on the order the seed ran the cells in.
func digestOf(cells []string) string {
	s := append([]string(nil), cells...)
	sort.Strings(s)
	h := sha256.New()
	for _, c := range s {
		h.Write([]byte(c))
	}
	return hex.EncodeToString(h.Sum(nil))
}
