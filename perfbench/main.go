// Command perfbench is the repository benchmark: one command that runs a
// workload through the public entry points of the doda packages, checks
// every output, and prints the workload's metrics as the last line of
// standard output.
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// With -trace 0 the last line carries the end-to-end metrics, measured
// with no instrumentation in the way. With -trace 1 the workload runs
// twice, untraced and then traced, and the last line carries the
// per-layer metrics the traced pass recorded by timing calls into each
// layer from this package's own wrappers, plus the tracing overhead. The
// traced pass writes its spans to .bench_build/trace/ at exit.
//
// See README.md for the workloads, the metrics and the layers each one
// loads or bypasses.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts verified outputs: attempted is every operation or
// result the workload checked, failed the ones that were refused or
// wrong. failures keeps the first few messages for standard error.
type checks struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
}

func (c *checks) ok(cond bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if cond {
		return
	}
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// fail records an operation that returned an error.
func (c *checks) fail(err error) { c.ok(false, "%v", err) }

// runConfig is everything a measurement depends on; it is printed before
// the result and stored with the spans, so every number carries it.
type runConfig struct {
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       bool           `json:"trace"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	WorkloadCfg map[string]any `json:"workload_config"`
}

// env is what a workload gets: its inputs and a scratch directory.
type env struct {
	seed uint64
	work string // scratch directory, removed at exit
	tr   *tracer
}

// outcome is a workload's measurement: the end-to-end metrics from the
// untraced pass, or the per-layer metrics from the traced one.
type outcome struct {
	metrics map[string]metric
	// unitSeconds is the median time of one unit of work; the traced and
	// untraced values give the tracing overhead.
	unitSeconds float64
	// baseSeconds, when set by a traced pass, is the untraced time of the
	// traced pass's own loop, where that loop is not the untraced pass's.
	baseSeconds float64
}

// endToEnd is every metric an untraced run reports, with its unit. Each
// workload defines each of them for itself (see README.md).
var endToEnd = map[string]string{
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"latency_p50_ms":   "ms",
}

type workload struct {
	name string
	// fixed is the configuration the workload never varies, recorded
	// with every run beside its parameters.
	fixed map[string]any
	// config fills the workload's parameters for a run of the given
	// length, so the same arguments always give the same work.
	config func(seconds int) any
	// run measures the workload once, traced when e.tr is non-nil.
	run func(e *env, params any, c *checks) (outcome, error)
}

func workloads() []workload {
	return []workload{gridWorkload, largeNWorkload, ingestWorkload, serveMixedWorkload}
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "run length the workload is sized for")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	var wl *workload
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
		if w.name == *name {
			w := w
			wl = &w
		}
	}
	if wl == nil {
		return 2, fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 {
		return 2, fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}

	params := wl.config(*seconds)
	cfg := &runConfig{
		Workload:   wl.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *trace == 1,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return 1, err
	}
	if err := json.Unmarshal(raw, &cfg.WorkloadCfg); err != nil {
		return 1, err
	}
	for k, v := range wl.fixed {
		cfg.WorkloadCfg[k] = v
	}
	line, err := json.Marshal(map[string]any{"config": cfg})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))

	build := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return 1, err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(work)

	rep, err := measure(wl, cfg, params, work, filepath.Join(build, "trace"))
	if err != nil {
		return 1, err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1, errors.New("output checks failed")
	}
	return 0, nil
}

// measure runs the workload untraced and, for a traced run, once more
// traced, and assembles the report.
func measure(wl *workload, cfg *runConfig, params any, work, traceDir string) (report, error) {
	var c checks
	e := &env{seed: cfg.Seed, work: work}
	plain, err := wl.run(e, params, &c)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", wl.name, err)
	}
	metrics := plain.metrics
	if len(metrics) != len(endToEnd) {
		return report{}, fmt.Errorf("%s reported %d end-to-end metrics, want %d", wl.name, len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if endToEnd[name] != m.Unit {
			return report{}, fmt.Errorf("%s reported %s in %q, want %q", wl.name, name, m.Unit, endToEnd[name])
		}
	}
	if cfg.Trace {
		e.tr = newTracer()
		traced, err := wl.run(e, params, &c)
		if err != nil {
			return report{}, fmt.Errorf("%s traced: %w", wl.name, err)
		}
		base := plain.unitSeconds
		if traced.baseSeconds > 0 {
			base = traced.baseSeconds
		}
		traced.metrics["trace.overhead_pct"] = metric{100 * (traced.unitSeconds - base) / base, ""}
		traced.metrics["runtime.peak_rss_mb"] = metric{peakRSSMB(), ""}
		metrics = fillLayers(traced.metrics)
		if err := e.tr.write(traceDir, cfg); err != nil {
			return report{}, err
		}
	}
	for _, f := range c.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	return report{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   metrics,
	}, nil
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
