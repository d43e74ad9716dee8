package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fusion/internal/mem"
	"fusion/internal/service"
	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// sweepCell is one (bench, system, config) cell fusiond can be asked for.
type sweepCell struct {
	key        string
	body       []byte // POST /v1/sweep request body
	wantDigest string // versions digest of the sequential golden image
	wantLines  int
}

// fusiondSweep serves fusiond in-process over loopback with a fresh cache
// dir and 2 workers each pass. Its traffic is that of the repo's daemon
// smoke test (scripts/daemon_smoke.sh), the one documented client: post a
// one-cell sweep, then post the same request again and get the
// cache-served reply. One closed-loop client takes the cells of 7 benches x
// 6 systems x {default, large} in an order drawn from the seed and posts
// each cell twice. So every pass simulates (and caches) each cell once and
// half the requests are cache hits.
type fusiondSweep struct {
	dir    string
	cells  []sweepCell
	order  []int // cell indices, in the order the client takes them
	serial int   // numbers fresh cache dirs
}

func (f *fusiondSweep) setup(seed int64, tr *tracer) error {
	f.cells = f.cells[:0]
	for _, name := range workloads.Names() {
		id := tr.begin("workloads_gen", 0, 0, name)
		b := workloads.Get(name)
		want := systems.ExpectedVersions(b)
		tr.end(id)
		digest := versionsDigest(want)
		for _, sys := range systems.KindNames() {
			for _, large := range []bool{false, true} {
				spec := systems.Spec{Bench: name, System: sys, Large: large}
				body, err := json.Marshal(service.SweepRequest{Cells: []systems.Spec{spec}})
				if err != nil {
					return err
				}
				key := name + "/" + sys
				if large {
					key += "/large"
				}
				f.cells = append(f.cells, sweepCell{key: key, body: body, wantDigest: digest, wantLines: len(want)})
			}
		}
	}
	f.order = rand.New(rand.NewSource(seed)).Perm(len(f.cells))
	// Start-up cost: open a fresh cache and serve.
	srv, err := f.start()
	if err != nil {
		return err
	}
	return srv.stop()
}

// versionsDigest is the digest fusiond reports for a final memory image
// equal to want: SHA-256 over (line, version) pairs in line order.
func versionsDigest(want map[mem.VAddr]uint64) string {
	addrs := make([]mem.VAddr, 0, len(want))
	for a := range want {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := sha256.New()
	var buf [16]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint64(buf[:8], uint64(a))
		binary.LittleEndian.PutUint64(buf[8:], want[a])
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// server is one running fusiond instance.
type server struct {
	svc    *service.Service
	http   *http.Server
	url    string
	dir    string
	served chan error
}

func (f *fusiondSweep) start() (*server, error) {
	f.serial++
	dir := filepath.Join(f.dir, fmt.Sprintf("fusiond-cache-%d-%d", os.Getpid(), f.serial))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{CacheDir: dir, Workers: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, svc.Shutdown(context.Background()))
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc}, url: "http://" + ln.Addr().String(),
		dir: dir, served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the service down, waits for both, and
// removes the cache dir.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// reply is one client request's outcome.
type reply struct {
	ms     float64 // host time from sending the request to reading the reply
	status int
	body   []byte
	err    error
}

// failure is the reply's transport error or non-200 status, if any.
func (r reply) failure() error {
	switch {
	case r.err != nil:
		return r.err
	case r.status != http.StatusOK:
		return fmt.Errorf("HTTP %d", r.status)
	}
	return nil
}

// exchange is one cell's two requests: the cold one, and the same request
// again once the cold reply is in.
type exchange struct {
	idx        int
	cold, warm reply
}

func (f *fusiondSweep) pass(tr *tracer, sm *speedMeter) (*passResult, error) {
	srv, err := f.start()
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	defer client.CloseIdleConnections()

	xs := make([]exchange, len(f.order))
	for i, idx := range f.order {
		xs[i] = exchange{idx: idx, cold: f.post(client, srv.url, idx, "http_request", tr)}
		xs[i].warm = f.post(client, srv.url, idx, "http_hit", tr)
		sm.worked(time.Duration((xs[i].cold.ms + xs[i].warm.ms) * 1e6))
	}

	var st service.Statsz
	err = getJSON(client, srv.url+"/statsz", &st)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	p := f.judge(xs)
	p.svc = &st
	return p, nil
}

// post sends one one-cell sweep and reads the whole reply, in a span of
// the given name.
func (f *fusiondSweep) post(client *http.Client, url string, idx int, span string, tr *tracer) reply {
	c := f.cells[idx]
	id := tr.begin(span, 0, tr.nextCell(), c.key)
	t0 := time.Now()
	var r reply
	resp, err := client.Post(url+"/v1/sweep", "application/json", bytes.NewReader(c.body))
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.err = err
	r.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	return r
}

// judge checks one pass's exchanges. A cold reply must hold one
// error-free cell whose final image is the sequential golden image, and the
// cache-served reply must match it byte for byte. Every failure counts
// once, against the request it names. The cold replies, error text
// included, make up the digest; their times are the cells' host times.
func (f *fusiondSweep) judge(xs []exchange) *passResult {
	p := &passResult{counts: newCounts()}
	bodies := make([][]byte, len(f.cells))
	for _, x := range xs {
		key := f.cells[x.idx].key
		p.attempted += 2
		if err := x.cold.failure(); err != nil {
			p.fail("%s: cold request: %v", key, err)
		} else if cell, err := f.checkCell(x.idx, x.cold.body); err != nil {
			p.fail("%s: %v", key, err)
		} else {
			p.simCycles += cell.Cycles
			p.counts.energyPJ += cell.EnergyPJ
			p.counts.raw["dma.bytes"] += cell.DMABytes
		}
		if err := x.warm.failure(); err != nil {
			p.fail("%s: cache-served request: %v", key, err)
		} else if !bytes.Equal(x.warm.body, x.cold.body) {
			p.fail("%s: cache-served reply differs from the cold reply", key)
		}
		bodies[x.idx] = x.cold.body
		p.cells = append(p.cells, sample{key, x.cold.ms})
		p.hitsMS = append(p.hitsMS, x.warm.ms)
	}
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// checkCell validates a cell's cold reply: one cell, no error, and a final
// image equal to the sequential golden image.
func (f *fusiondSweep) checkCell(idx int, body []byte) (*service.CellResult, error) {
	var resp service.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if len(resp.Cells) != 1 || resp.Cells[0] == nil {
		return nil, fmt.Errorf("reply has %d cells, want 1", len(resp.Cells))
	}
	cell, want := resp.Cells[0], f.cells[idx]
	switch {
	case cell.Error != "":
		return nil, fmt.Errorf("cell error: %s", cell.Error)
	case cell.LinesBad != 0 || cell.LinesChecked != want.wantLines:
		return nil, fmt.Errorf("%d of %d lines bad (want 0 of %d)", cell.LinesBad, cell.LinesChecked, want.wantLines)
	case cell.VersionsDigest != want.wantDigest:
		return nil, fmt.Errorf("final image digest %s, want %s", cell.VersionsDigest, want.wantDigest)
	}
	return cell, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serviceMetrics are the fusiond counters, as medians over the passes
// (zero on workloads that do not serve).
func serviceMetrics(rs *runStats) map[string]metric {
	var ratio, run, coalesced, shed []float64
	for _, p := range rs.passes {
		if p.svc == nil {
			continue
		}
		st := p.svc
		if n := st.CacheHits + st.CacheMisses; n > 0 {
			ratio = append(ratio, float64(st.CacheHits)/float64(n))
		}
		run = append(run, float64(st.JobsRun))
		coalesced = append(coalesced, float64(st.JobsCoalesced))
		shed = append(shed, float64(st.JobsShed))
	}
	return map[string]metric{
		"service.cache_hit_ratio": {median(ratio), "ratio"},
		"service.jobs_run":        {median(run), "count"},
		"service.coalesced":       {median(coalesced), "count"},
		"service.shed":            {median(shed), "count"},
	}
}
