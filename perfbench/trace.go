package main

// Tracing from outside the program: every wrapper here sits on a public
// seam of one layer (the chaos.FS write path, the HTTP handler, the
// client's transport, the engine's adversary interface) and records
// spans and counts around the calls that cross it. Nothing inside the
// program is changed, so an untraced run executes exactly the code a
// user runs.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doda/internal/chaos"
	"doda/internal/core"
	"doda/internal/seq"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the span that caused this one (0 = the op's root).
// Start and End are nanoseconds since the tracer started. An aggregated
// span (the adversary's NextBatch calls within one engine run) carries
// the number of calls it folds and the time spent inside them.
type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span or op identifier, so children can name their parent
// before the parent span ends.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

// record stores one finished span.
func (t *tracer) record(id, op, parent int64, name string, start, end time.Time) {
	t.add(span{ID: id, Op: op, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the run's config and every span as JSON lines under dir.
func (t *tracer) write(dir string, cfg *runConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"config": cfg}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

// layerMetrics is every per-layer metric a traced run reports, with its
// unit. A workload that does not load a layer reports that layer's
// metrics as 0: the layer did no work.
var layerMetrics = []struct{ name, unit string }{
	{"sweep.waiting_s", "s"},
	{"sweep.waiting.ns_per_interaction", "ns"},
	{"sweep.gathering_s", "s"},
	{"sweep.gathering.ns_per_interaction", "ns"},
	{"sweep.waiting-greedy_s", "s"},
	{"sweep.waiting-greedy.ns_per_interaction", "ns"},
	{"sweepd.fsyncs", "count"},
	{"sweepd.fsync_s", "s"},
	{"sweepd.bytes", "bytes"},
	{"analysis.analyze_s", "s"},
	{"analysis.matching_groups", "count"},
	{"core.ns_per_interaction", "ns"},
	{"adversary.ns_per_interaction", "ns"},
	{"core.transmissions", "count"},
	{"serveclient.rtt_ms.p50", "ms"},
	{"serveclient.rtt_ms.p99", "ms"},
	{"serveclient.batch_ms.p99", "ms"},
	{"serveclient.read_ms.p50", "ms"},
	{"serveclient.read_ms.p90", "ms"},
	{"serveclient.retries", "count"},
	{"serve.handler_ms.p50", "ms"},
	{"serve.handler_ms.p99", "ms"},
	{"serve.http.status_429", "count"},
	{"serve.wal.fsyncs_per_batch", "ratio"},
	{"serve.wal.fsync_ms.p50", "ms"},
	{"serve.wal.fsync_ms.p99", "ms"},
	{"serve.wal.bytes_per_op", "bytes"},
	{"serve.wal.renames", "count"},
	{"serve.hot_batch_ms.p50", "ms"},
	{"serve.cold_batch_ms.p50", "ms"},
	{"serve.state_ms.p50", "ms"},
	{"serve.state_ms.p90", "ms"},
	{"serve.state_bytes", "bytes"},
	{"serve.status.live", "count"},
	{"serve.status.evicted", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// fillLayers returns m with every per-layer metric present, units taken
// from layerMetrics. It panics on a name missing from layerMetrics: that
// is a bug in this package, not something input can cause.
func fillLayers(m map[string]metric) map[string]metric {
	units := make(map[string]string, len(layerMetrics))
	out := make(map[string]metric, len(layerMetrics))
	for _, l := range layerMetrics {
		units[l.name] = l.unit
		out[l.name] = metric{0, l.unit}
	}
	for k, v := range m {
		u, ok := units[k]
		if !ok {
			panic("perfbench: unlisted per-layer metric " + k)
		}
		out[k] = metric{v.Value, u}
	}
	return out
}

// timingFS wraps the chaos.FS write-path seam that serve.Options.FS and
// sweepd.Options.FS accept. It counts fsyncs (file and directory),
// renames and bytes written, and records a span per fsync and rename,
// attributed to an operation by opOf when it can tell.
type timingFS struct {
	inner chaos.FS
	tr    *tracer
	// opOf maps a path to the operation and parent span in flight on it
	// (0, 0 when none is known).
	opOf func(path string) (op, parent int64)

	mu      sync.Mutex
	syncMs  []float64
	bytes   int64
	renames int64
}

var _ chaos.FS = (*timingFS)(nil)

func newTimingFS(tr *tracer, opOf func(string) (int64, int64)) *timingFS {
	return &timingFS{inner: chaos.Disk, tr: tr, opOf: opOf}
}

// timed runs call and records it as a span on the op in flight on path.
func (f *timingFS) timed(name, path string, call func() error) (time.Duration, error) {
	start := time.Now()
	err := call()
	end := time.Now()
	op, parent := f.opOf(path)
	f.tr.record(f.tr.id(), op, parent, name, start, end)
	return end.Sub(start), err
}

// fsync runs one file or directory fsync, timed and counted.
func (f *timingFS) fsync(name, path string, call func() error) error {
	d, err := f.timed(name, path, call)
	f.mu.Lock()
	f.syncMs = append(f.syncMs, ms(d))
	f.mu.Unlock()
	return err
}

func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{fs: f, inner: inner}, nil
}

func (f *timingFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timingFile{fs: f, inner: inner}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.renames++
	f.mu.Unlock()
	_, err := f.timed("fs.rename", newpath, func() error { return f.inner.Rename(oldpath, newpath) })
	return err
}

func (f *timingFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f *timingFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

func (f *timingFS) SyncDir(dir string) error {
	return f.fsync("fs.fsync_dir", dir, func() error { return f.inner.SyncDir(dir) })
}

// totals returns the fsync count, their summed time in seconds, the fsync
// durations in milliseconds, bytes written and renames.
func (f *timingFS) totals() (fsyncs int, fsyncS float64, syncMs []float64, bytes, renames int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range f.syncMs {
		fsyncS += x / 1000
	}
	return len(f.syncMs), fsyncS, append([]float64(nil), f.syncMs...), f.bytes, f.renames
}

type timingFile struct {
	fs    *timingFS
	inner chaos.File
}

func (t *timingFile) Write(p []byte) (int, error) {
	n, err := t.inner.Write(p)
	t.fs.mu.Lock()
	t.fs.bytes += int64(n)
	t.fs.mu.Unlock()
	return n, err
}

func (t *timingFile) Sync() error {
	return t.fs.fsync("fs.fsync", t.inner.Name(), t.inner.Sync)
}

func (t *timingFile) Close() error { return t.inner.Close() }
func (t *timingFile) Name() string { return t.inner.Name() }

// Operations carry their ids from the client, through the transport and
// a request header, into the server's handler, so the spans either side
// records join up.
type opKey struct{}

type opInfo struct {
	op   int64
	kind string // "feed", "read" or "" for set-up traffic
}

func withOp(ctx context.Context, op int64, kind string) context.Context {
	return context.WithValue(ctx, opKey{}, opInfo{op: op, kind: kind})
}

func opFrom(ctx context.Context) opInfo {
	v, _ := ctx.Value(opKey{}).(opInfo)
	return v
}

const spanHeader = "X-Perfbench-Span"

// timingTransport is the serveclient.Options.HTTPClient transport: one
// span per HTTP attempt, and the attempt's round-trip time by kind.
type timingTransport struct {
	inner http.RoundTripper
	tr    *tracer

	mu       sync.Mutex
	attempts map[string]int64
	rttMs    []float64
}

func newTimingTransport(inner http.RoundTripper, tr *tracer) *timingTransport {
	return &timingTransport{inner: inner, tr: tr, attempts: map[string]int64{}}
}

func (t *timingTransport) reset() {
	t.mu.Lock()
	t.attempts = map[string]int64{}
	t.rttMs = nil
	t.mu.Unlock()
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	info := opFrom(req.Context())
	id := t.tr.id()
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(info.op, 10)+"/"+strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := t.inner.RoundTrip(out)
	end := time.Now()
	t.tr.record(id, info.op, 0, "serveclient.roundtrip", start, end)
	t.mu.Lock()
	t.attempts[info.kind]++
	if info.kind != "" {
		t.rttMs = append(t.rttMs, ms(end.Sub(start)))
	}
	t.mu.Unlock()
	return resp, err
}

// handlerStats is what the handler wrapper measured for one request kind.
type handlerStats struct {
	ms    []float64
	bytes int64
}

// timingHandler wraps Server.Handler(): one span per request, the
// handler time per request class, response bytes, and 429 answers.
type timingHandler struct {
	inner http.Handler
	tr    *tracer
	// class names a request for the per-class statistics ("" = skip).
	class func(r *http.Request) string

	mu     sync.Mutex
	stats  map[string]*handlerStats
	status map[int]int64
}

func newTimingHandler(inner http.Handler, tr *tracer, class func(*http.Request) string) *timingHandler {
	return &timingHandler{inner: inner, tr: tr, class: class,
		stats: map[string]*handlerStats{}, status: map[int]int64{}}
}

func (h *timingHandler) reset() {
	h.mu.Lock()
	h.stats = map[string]*handlerStats{}
	h.status = map[int]int64{}
	h.mu.Unlock()
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var op, parent int64
	if v := r.Header.Get(spanHeader); v != "" {
		a, b, _ := strings.Cut(v, "/")
		op, _ = strconv.ParseInt(a, 10, 64)
		parent, _ = strconv.ParseInt(b, 10, 64)
	}
	cw := &countingWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	h.inner.ServeHTTP(cw, r)
	end := time.Now()
	h.tr.record(h.tr.id(), op, parent, "serve.handler", start, end)
	class := h.class(r)
	h.mu.Lock()
	h.status[cw.code]++
	if class != "" {
		st := h.stats[class]
		if st == nil {
			st = &handlerStats{}
			h.stats[class] = st
		}
		st.ms = append(st.ms, ms(end.Sub(start)))
		st.bytes += cw.bytes
	}
	h.mu.Unlock()
}

type countingWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.bytes += int64(n)
	return n, err
}

// timedAdversary wraps a batch adversary and times every NextBatch call.
// It implements core.BatchAdversary itself, so the engine keeps its
// batched path under tracing.
type timedAdversary struct {
	inner core.BatchAdversary
	busy  time.Duration
	calls int64
	first time.Time
	last  time.Time
}

var _ core.BatchAdversary = (*timedAdversary)(nil)

func (a *timedAdversary) Name() string { return a.inner.Name() }

func (a *timedAdversary) Next(t int, view core.ExecView) (seq.Interaction, bool) {
	start := time.Now()
	it, ok := a.inner.Next(t, view)
	a.note(start)
	return it, ok
}

func (a *timedAdversary) NextBatch(t int, view core.ExecView, buf []seq.Interaction) int {
	start := time.Now()
	k := a.inner.NextBatch(t, view, buf)
	a.note(start)
	return k
}

func (a *timedAdversary) note(start time.Time) {
	end := time.Now()
	if a.calls == 0 {
		a.first = start
	}
	a.last = end
	a.busy += end.Sub(start)
	a.calls++
}
