package main

// ingest and serve_mixed: durable serving through an in-process
// serve.Server behind a real loopback listener, driven by serveclient
// connections in a closed loop (a seq-stamped stream sends batch k+1
// only after batch k is acknowledged).
//
// Each connection owns its instances outright, so every instance sees
// its batches in one fixed order and its final state is a pure function
// of the seed. Interactions never pair the sink with node n-1, so a
// Waiting instance can never terminate and no batch is refused.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"doda/internal/agg"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
	"doda/internal/serve"
	"doda/internal/serveclient"
)

// Every serving instance has this shape: a Waiting aggregation over
// n = 256 nodes under full provenance, which replayState mirrors.
var serveInstance = serve.InstanceConfig{N: 256, Algorithm: "waiting", Provenance: "full"}

const (
	// serveConns client connections, each driven by one goroutine in a
	// closed loop, send batches of serveBatch interactions.
	serveConns = 2
	serveBatch = 64
	// snapshotEvery is serve.Options' default SnapshotEvery: an instance
	// rotates its WAL (snapshot, fsyncs, rename) after this many applied
	// interactions. Each unit gives every hot instance exactly this many,
	// so every unit carries one rotation per hot instance.
	snapshotEvery = 1024
	// serveWarmup units run unmeasured first. Registration leaves the
	// live slots the hot sets do not use holding cold instances that
	// were never fed, whose eviction writes nothing; two units of cold
	// touches replace them all, so from then on every eviction journals
	// a snapshot.
	serveWarmup = 2
)

// serveFixed is the part of the serving workloads' configuration that
// never varies, recorded with every run.
var serveFixed = map[string]any{
	"n": serveInstance.N, "algorithm": serveInstance.Algorithm, "provenance": serveInstance.Provenance,
	"connections": serveConns, "batch_size": serveBatch, "snapshot_every": snapshotEvery,
}

type serveParams struct {
	// Hot instances per connection are fed in rotation; cold ones are
	// cycled through one at a time. With the cold sets far larger than
	// the live cap leaves room for, every cold touch rehydrates an
	// evicted instance and evicts the least recently touched live one.
	Hot  int `json:"hot_per_connection"`
	Cold int `json:"cold_per_connection"`
	// LiveCap is serve.Options.MaxLiveInstances (0 = unlimited).
	LiveCap int `json:"live_cap"`
	// Pattern is each connection's repeating op schedule: h = batch to
	// the next hot instance, c = batch to the next cold instance, r =
	// State read of the next hot instance.
	Pattern string `json:"pattern"`
	// OpsPerUnit is how many ops each connection runs per unit; the
	// connections meet at a barrier after every unit. The first
	// serveWarmup of Units are not measured.
	OpsPerUnit int `json:"ops_per_unit"`
	Units      int `json:"units"`
	// SetupReps is how many servers are set up and timed before the load,
	// which runs on the last. They are not spread between units as the
	// other workloads' set-ups are: registration fsyncs right after a
	// unit wait on that unit's disk writeback.
	SetupReps int `json:"setup_reps"`
}

// ingest: 8 hot instances per connection, 8 × 16 batches per unit.
var ingestWorkload = workload{
	name:  "ingest",
	fixed: serveFixed,
	config: func(seconds int) any {
		return serveParams{
			Hot: 8, Pattern: "h", OpsPerUnit: 8 * snapshotEvery / serveBatch,
			Units: serveWarmup + 14*seconds, SetupReps: 21,
		}
	},
	run: func(e *env, p any, c *checks) (outcome, error) { return runServe(e, p.(serveParams), c) },
}

// serve_mixed: the pattern holds 13 hot batches in 16 ops, so with 13
// hot instances per connection a unit of 16 patterns gives each of them
// 16 batches.
var serveMixedWorkload = workload{
	name:  "serve_mixed",
	fixed: serveFixed,
	config: func(seconds int) any {
		return serveParams{
			Hot: 13, Cold: 128, LiveCap: 64,
			Pattern: "hhhchhhrhhhhhhhr", OpsPerUnit: 16 * 16, Units: serveWarmup + 7*seconds/2, SetupReps: 7,
		}
	},
	run: func(e *env, p any, c *checks) (outcome, error) { return runServe(e, p.(serveParams), c) },
}

// feedInstance is one instance as its owning connection sees it.
type feedInstance struct {
	name  string
	cold  bool
	seed  uint64
	src   *rng.Source
	acked int // batches acknowledged so far
	lastT int // interactions applied at the last State read
}

// nextBatch draws an instance's next batch: uniform pairs, never the
// pair (0, n-1), so node n-1 never meets the sink.
func nextBatch(src *rng.Source) []seq.Interaction {
	n := serveInstance.N
	its := make([]seq.Interaction, serveBatch)
	for i := range its {
		a, b := src.Pair(n)
		for a == 0 && b == n-1 {
			a, b = src.Pair(n)
		}
		its[i] = seq.Interaction{U: graph.NodeID(a), V: graph.NodeID(b)}
	}
	return its
}

// conn is one client connection and the instances it owns.
type conn struct {
	client     *serveclient.Client
	transport  *http.Transport
	hot, cold  []*feedInstance
	op         int // ops run so far
	nh, nc, nr int // rotation cursors
	// Client-observed latencies of the measured units.
	batchMs, readMs []float64
}

// instances returns every instance the connection owns, cold ones first.
func (cn *conn) instances() []*feedInstance {
	return append(append([]*feedInstance(nil), cn.cold...), cn.hot...)
}

// server is one running serve.Server behind a loopback listener.
type server struct {
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	conns   []*conn
	fs      *timingFS
	handler *timingHandler
	tt      []*timingTransport
}

func (s *server) close() {
	s.hs.Close()
	<-s.served
	for _, c := range s.conns {
		c.transport.CloseIdleConnections()
	}
	s.srv.Close()
	os.RemoveAll(s.dir)
}

func instanceSeed(seed uint64, conn, idx int, cold bool) uint64 {
	k := uint64(conn)<<32 | uint64(idx)<<1
	if cold {
		k |= 1
	}
	return rng.New(seed ^ (k * 0x9e3779b97f4a7c15)).Uint64()
}

// inflight maps an instance name to the op feeding it, so WAL writes on
// its files can name their op. Only the instance's owning connection
// writes its entry.
type inflight struct {
	mu  sync.Mutex
	ops map[string]int64
}

func (f *inflight) set(name string, op int64) {
	f.mu.Lock()
	f.ops[name] = op
	f.mu.Unlock()
}

// of finds the instance a WAL path belongs to: the path is either the
// instance's directory (a directory fsync) or a file inside it.
func (f *inflight) of(path string) (int64, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	op, ok := f.ops[filepath.Base(path)]
	if !ok {
		op = f.ops[filepath.Base(filepath.Dir(path))]
	}
	return op, 0
}

// startServer builds the server and its clients and registers every
// instance through the HTTP API — the set-up the workload times.
func startServer(e *env, p serveParams, dir string, live *inflight) (*server, error) {
	s := &server{dir: dir, served: make(chan error, 1)}
	opt := serve.Options{Dir: dir, MaxLiveInstances: p.LiveCap}
	if e.tr != nil {
		s.fs = newTimingFS(e.tr, live.of)
		opt.FS = s.fs
	}
	srv, err := serve.NewServer(opt)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	var h http.Handler = srv.Handler()
	if e.tr != nil {
		s.handler = newTimingHandler(h, e.tr, requestClass)
		h = s.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()

	for k := 0; k < serveConns; k++ {
		t := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
		var rt http.RoundTripper = t
		if e.tr != nil {
			tt := newTimingTransport(t, e.tr)
			s.tt = append(s.tt, tt)
			rt = tt
		}
		cl := serveclient.New(s.base, serveclient.Options{
			HTTPClient: &http.Client{Transport: rt},
			Seed:       uint64(k + 1),
		})
		cn := &conn{client: cl, transport: t}
		for i := 0; i < p.Cold; i++ {
			cn.cold = append(cn.cold, newFeedInstance(e.seed, k, i, true))
		}
		for i := 0; i < p.Hot; i++ {
			cn.hot = append(cn.hot, newFeedInstance(e.seed, k, i, false))
		}
		s.conns = append(s.conns, cn)
	}
	// Cold instances register first, so the hot ones are live when the
	// load starts.
	ctx := context.Background()
	for _, cold := range []bool{true, false} {
		for _, cn := range s.conns {
			for _, fi := range cn.instances() {
				if fi.cold != cold {
					continue
				}
				cfg := serveInstance
				cfg.Name = fi.name
				_, err := cn.client.Register(ctx, cfg)
				if err != nil {
					s.close()
					return nil, fmt.Errorf("register %s: %w", fi.name, err)
				}
			}
		}
	}
	return s, nil
}

func newFeedInstance(seed uint64, conn, idx int, cold bool) *feedInstance {
	kind := "h"
	if cold {
		kind = "c"
	}
	s := instanceSeed(seed, conn, idx, cold)
	return &feedInstance{name: fmt.Sprintf("%s%d-%03d", kind, conn, idx), cold: cold, seed: s, src: rng.New(s)}
}

// requestClass names a request for the handler statistics: batches to
// hot and cold instances and state reads; everything else is set-up.
func requestClass(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/instances/")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(rest, "/")
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/ingest"):
		if strings.HasPrefix(name, "c") {
			return "cold"
		}
		return "hot"
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/state"):
		return "state"
	}
	return ""
}

// runOps runs count ops of the connection's schedule. measured says
// whether latencies are kept.
func (cn *conn) runOps(e *env, p serveParams, live *inflight, c *checks, count int, measured bool) {
	ctx := context.Background()
	for i := 0; i < count; i++ {
		kind := p.Pattern[cn.op%len(p.Pattern)]
		cn.op++
		var op int64
		if e.tr != nil {
			op = e.tr.id()
		}
		switch kind {
		case 'r':
			fi := cn.hot[cn.nr%len(cn.hot)]
			cn.nr++
			octx := ctx
			if e.tr != nil {
				octx = withOp(ctx, op, "read")
			}
			start := time.Now()
			st, err := cn.client.State(octx, fi.name)
			end := time.Now()
			if e.tr != nil {
				e.tr.record(op, op, 0, "op.read", start, end)
			}
			if err != nil {
				c.fail(fmt.Errorf("state %s: %w", fi.name, err))
				continue
			}
			if measured {
				cn.readMs = append(cn.readMs, ms(end.Sub(start)))
			}
			want := fi.acked * serveBatch
			c.ok(st.T == want && st.T >= fi.lastT,
				"state %s: t=%d after a read at t=%d, want %d (acked batches applied, never going back)",
				fi.name, st.T, fi.lastT, want)
			fi.lastT = st.T
		default:
			var fi *feedInstance
			if kind == 'c' {
				fi = cn.cold[cn.nc%len(cn.cold)]
				cn.nc++
			} else {
				fi = cn.hot[cn.nh%len(cn.hot)]
				cn.nh++
			}
			its := nextBatch(fi.src)
			octx := ctx
			if e.tr != nil {
				octx = withOp(ctx, op, "feed")
				live.set(fi.name, op)
			}
			start := time.Now()
			err := cn.client.Feed(octx, fi.name, its, uint64(fi.acked+1))
			end := time.Now()
			if e.tr != nil {
				e.tr.record(op, op, 0, "op.feed", start, end)
				live.set(fi.name, 0)
			}
			if err != nil {
				// The batch stays unacknowledged; the instance's stream
				// is now ahead of the server, which the final state
				// check reports.
				c.fail(fmt.Errorf("feed %s: %w", fi.name, err))
				continue
			}
			c.ok(true, "")
			fi.acked++
			if measured {
				cn.batchMs = append(cn.batchMs, ms(end.Sub(start)))
			}
		}
	}
}

func runServe(e *env, p serveParams, c *checks) (outcome, error) {
	live := &inflight{ops: map[string]int64{}}
	s, setupS, err := setupMedian(p.SetupReps, func() (*server, func(), error) {
		dir, err := os.MkdirTemp(e.work, "serve-")
		if err != nil {
			return nil, nil, err
		}
		s, err := startServer(e, p, dir, live)
		if err != nil {
			return nil, nil, err
		}
		return s, s.close, nil
	})
	if err != nil {
		return outcome{}, err
	}
	defer s.close()

	var (
		fs0                 fsSnapshot
		ms0, ms1            runtime.MemStats
		unitS, rates        []float64
		ackedOps, ackedBats int
	)
	for u := 0; u < p.Units; u++ {
		measured := u >= serveWarmup
		if e.tr != nil && u == serveWarmup {
			// The traced statistics cover the measured units only.
			s.handler.reset()
			for _, tt := range s.tt {
				tt.reset()
			}
			fs0 = snapshotFS(s.fs)
			runtime.ReadMemStats(&ms0)
		}
		before := s.ackedBatches()
		var wg sync.WaitGroup
		start := time.Now()
		for _, cn := range s.conns {
			wg.Add(1)
			go func(cn *conn) {
				defer wg.Done()
				cn.runOps(e, p, live, c, p.OpsPerUnit, measured)
			}(cn)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		batches := s.ackedBatches() - before
		if measured {
			unitS = append(unitS, el)
			rates = append(rates, float64(batches*serveBatch)/el)
			ackedBats += batches
			ackedOps += batches * serveBatch
		}
	}
	var batchMs, readMs []float64
	for _, cn := range s.conns {
		batchMs = append(batchMs, cn.batchMs...)
		readMs = append(readMs, cn.readMs...)
	}
	out := outcome{unitSeconds: median(unitS)}
	if e.tr == nil {
		out.metrics = map[string]metric{
			"setup_s":          {setupS, "s"},
			"throughput_per_s": {median(rates), "1/s"},
			"latency_p50_ms":   {median(batchMs), "ms"},
		}
	} else {
		// Taken before the output checks, whose reads and rehydrations
		// are not part of the load.
		runtime.ReadMemStats(&ms1)
		out.metrics = s.layerMetrics(p, fs0, ackedOps, ackedBats, batchMs, readMs)
		out.metrics["runtime.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), ""}
		out.metrics["runtime.alloc_mb"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20), ""}
		out.metrics["runtime.alloc_bytes_per_op"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ackedOps), ""}
	}
	if err := checkServe(s, c); err != nil {
		return outcome{}, err
	}
	return out, nil
}

// layerMetrics assembles the traced pass's per-layer metrics from the
// wrappers' records; fs0 is the timing FS at the start of the measured
// units.
func (s *server) layerMetrics(p serveParams, fs0 fsSnapshot, ackedOps, ackedBats int, batchMs, readMs []float64) map[string]metric {
	var rtt []float64
	var attempts int64
	ops := int64((p.Units - serveWarmup) * p.OpsPerUnit * len(s.conns))
	for _, tt := range s.tt {
		tt.mu.Lock()
		rtt = append(rtt, tt.rttMs...)
		attempts += tt.attempts["feed"] + tt.attempts["read"]
		tt.mu.Unlock()
	}
	status := s.srv.Status()
	d := snapshotFS(s.fs).minus(fs0)
	h := s.handler
	h.mu.Lock()
	defer h.mu.Unlock()
	stat := func(class string) *handlerStats {
		if st := h.stats[class]; st != nil {
			return st
		}
		return &handlerStats{}
	}
	ingestMs := append(append([]float64(nil), stat("hot").ms...), stat("cold").ms...)
	return map[string]metric{
		"serveclient.rtt_ms.p50":     {quantile(rtt, 0.5), ""},
		"serveclient.rtt_ms.p99":     {quantile(rtt, 0.99), ""},
		"serveclient.batch_ms.p99":   {quantile(batchMs, 0.99), ""},
		"serveclient.read_ms.p50":    {quantile(readMs, 0.5), ""},
		"serveclient.read_ms.p90":    {quantile(readMs, 0.9), ""},
		"serveclient.retries":        {float64(attempts - ops), ""},
		"serve.handler_ms.p50":       {quantile(ingestMs, 0.5), ""},
		"serve.handler_ms.p99":       {quantile(ingestMs, 0.99), ""},
		"serve.http.status_429":      {float64(h.status[http.StatusTooManyRequests]), ""},
		"serve.wal.fsyncs_per_batch": {float64(d.fsyncs) / float64(ackedBats), ""},
		"serve.wal.fsync_ms.p50":     {quantile(d.syncMs, 0.5), ""},
		"serve.wal.fsync_ms.p99":     {quantile(d.syncMs, 0.99), ""},
		"serve.wal.bytes_per_op":     {float64(d.bytes) / float64(ackedOps), ""},
		"serve.wal.renames":          {float64(d.renames), ""},
		"serve.hot_batch_ms.p50":     {quantile(stat("hot").ms, 0.5), ""},
		"serve.cold_batch_ms.p50":    {quantile(stat("cold").ms, 0.5), ""},
		"serve.state_ms.p50":         {quantile(stat("state").ms, 0.5), ""},
		"serve.state_ms.p90":         {quantile(stat("state").ms, 0.9), ""},
		"serve.state_bytes":          {float64(stat("state").bytes), ""},
		"serve.status.live":          {float64(status.Live), ""},
		"serve.status.evicted":       {float64(status.Evicted), ""},
	}
}

func (s *server) ackedBatches() int {
	n := 0
	for _, cn := range s.conns {
		for _, fi := range cn.instances() {
			n += fi.acked
		}
	}
	return n
}

// fsSnapshot is the timing FS's counters at one instant, so the load
// phase's share can be separated from registration's.
type fsSnapshot struct {
	fsyncs         int
	syncMs         []float64
	bytes, renames int64
}

func snapshotFS(f *timingFS) fsSnapshot {
	n, _, syncMs, bytes, renames := f.totals()
	return fsSnapshot{fsyncs: n, syncMs: syncMs, bytes: bytes, renames: renames}
}

func (a fsSnapshot) minus(b fsSnapshot) fsSnapshot {
	return fsSnapshot{fsyncs: a.fsyncs - b.fsyncs, syncMs: a.syncMs[b.fsyncs:],
		bytes: a.bytes - b.bytes, renames: a.renames - b.renames}
}

// checkServe verifies every instance after the load: its journal and
// applied sequence equal the acknowledged batch count, and its /state
// document is byte-identical to a sequential engine fed the same
// acknowledged batches.
func checkServe(s *server, c *checks) error {
	ctx := context.Background()
	raw := &http.Client{}
	defer raw.CloseIdleConnections()
	for _, cn := range s.conns {
		for _, fi := range cn.instances() {
			st, err := cn.client.InstanceStatus(ctx, fi.name)
			if err != nil {
				c.fail(fmt.Errorf("status %s: %w", fi.name, err))
				continue
			}
			c.ok(st.LastSeq == uint64(fi.acked) && st.AppliedSeq == uint64(fi.acked),
				"%s: last_seq=%d applied_seq=%d, want %d acknowledged batches", fi.name, st.LastSeq, st.AppliedSeq, fi.acked)

			want, err := replayState(fi)
			if err != nil {
				return err
			}
			resp, err := raw.Get(s.base + "/v1/instances/" + fi.name + "/state")
			if err != nil {
				c.fail(fmt.Errorf("state %s: %w", fi.name, err))
				continue
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				c.fail(fmt.Errorf("state %s: %w", fi.name, err))
				continue
			}
			c.ok(resp.StatusCode == http.StatusOK && string(got) == string(want),
				"%s: served state differs from a sequential engine fed the acknowledged batches", fi.name)
		}
	}
	return nil
}

// replayState feeds a fresh engine the instance's acknowledged batches
// and returns its state document as the server encodes it.
func replayState(fi *feedInstance) ([]byte, error) {
	eng, err := core.NewEngine(core.Config{
		N: serveInstance.N, Agg: agg.Min, MaxInteractions: 1 << 50, Provenance: core.ProvenanceFull, VerifyAggregate: true,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.Begin(algorithms.Waiting{}); err != nil {
		return nil, err
	}
	src := rng.New(fi.seed)
	for b := 0; b < fi.acked; b++ {
		for _, it := range nextBatch(src) {
			if _, err := eng.Feed(it); err != nil {
				return nil, err
			}
		}
	}
	st, err := eng.StateSnapshot()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
