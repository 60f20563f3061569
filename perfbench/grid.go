package main

// report_grid: the scaling-law grid EXPERIMENTS.md commits, through the
// research path — sweep into a fresh checkpoint, then analysis of that
// checkpoint. It is the only workload that loads the knowledge oracle
// (Waiting Greedy's meet-time oracle over a cached stream).
//
// The grid runs at quick scale (analysis.ReportGrid(false, seed)), many
// times per run: a full-scale grid takes about 7 s, too long a unit for a
// machine whose speed shifts for seconds at a time (its rate spread 20%
// across ten seeds).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"doda/internal/analysis"
	"doda/internal/core"
	"doda/internal/knowledge"
	"doda/internal/rng"
	"doda/internal/scenario"
	"doda/internal/sweep"
	"doda/internal/sweepd"
)

// The grid runs with one sweep worker. Output is byte-identical for any
// count; one worker leaves the second core to the garbage collector
// instead of measuring the scheduler.
const gridWorkers = 1

// gridReads is how many times each finished checkpoint is analyzed
// again, as a user re-running the analysis would; the latency metric is
// the median of all these reads.
const gridReads = 3

type gridParams struct {
	// Grids is how many times the grid runs.
	Grids int `json:"grids"`
}

var gridWorkload = workload{
	name:  "report_grid",
	fixed: map[string]any{"scale": "quick", "workers": gridWorkers, "reads": gridReads},
	config: func(seconds int) any {
		return gridParams{Grids: 1 + 12*seconds}
	},
	run: func(e *env, p any, c *checks) (outcome, error) { return runGrid(e, p.(gridParams), c) },
}

// gridSetup is the work the sweep does before each cell's first
// interaction, done for every cell of the grid: expanding the grid, then
// per cell its first replica's inputs — the contact model, or for
// Waiting Greedy the cached stream and the meet-time oracle over it —
// and the engine, built for the first cell and reset for the others.
func gridSetup(grid sweep.Grid) error {
	cells, err := grid.Cells()
	if err != nil {
		return err
	}
	var eng *core.Engine
	for _, cell := range cells {
		spec, ok := scenario.Lookup(cell.Scenario.Name)
		if !ok {
			return fmt.Errorf("scenario %q not registered", cell.Scenario.Name)
		}
		prov, err := core.ParseProvenanceMode(cell.Provenance)
		if err != nil {
			return err
		}
		cfg := core.Config{N: cell.N, MaxInteractions: scenario.DefaultCap(cell.N), VerifyAggregate: true, Provenance: prov}
		if cell.Algorithm == "waiting-greedy" {
			w, err := spec.Build(cell.N, rng.New(cell.Seed).Uint64(), cell.Scenario.Params)
			if err != nil {
				return err
			}
			if b, finite := w.View.Bound(); finite && cfg.MaxInteractions > b {
				cfg.MaxInteractions = b
			}
			if cfg.Know, err = knowledge.NewBundle(knowledge.WithMeetTime(w.View, 0, cfg.MaxInteractions)); err != nil {
				return err
			}
		} else if _, err := spec.Model(cell.N, cell.Scenario.Params); err != nil {
			return err
		}
		if eng == nil {
			eng, err = core.NewEngine(cfg)
		} else {
			err = eng.Reset(cfg)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func runGrid(e *env, p gridParams, c *checks) (outcome, error) {
	grid := analysis.ReportGrid(false, e.seed)
	var (
		tr           = e.tr
		gridS        []float64 // each grid's time: sweep, checkpoint, analysis
		setupS       []float64 // the set-up before each grid
		runs         int
		readMs       []float64 // every analysis read's latency
		first        []byte
		algS         = map[string]float64{}
		algInts      = map[string]float64{}
		analyzeS     float64
		matching     int
		ms0, ms1     runtime.MemStats
		fsys         *timingFS
		currentGrid  int64
		currentCells int64
	)
	if tr != nil {
		fsys = newTimingFS(tr, func(string) (int64, int64) { return currentGrid, currentCells })
		runtime.ReadMemStats(&ms0)
	}
	for g := 0; g < p.Grids; g++ {
		// A set-up before every grid samples the same moments of the run
		// as the grids do, so one slow phase moves its median little. The
		// traced pass reports no set-up and keeps its allocations out of
		// the per-grid memory figures.
		if tr == nil {
			x, err := timeSetup(func() error { return gridSetup(grid) })
			if err != nil {
				return outcome{}, err
			}
			setupS = append(setupS, x)
		}
		dir, err := os.MkdirTemp(e.work, "grid-")
		if err != nil {
			return outcome{}, err
		}
		opt := sweepd.Options{Workers: gridWorkers, ProgressEvery: -1}
		var cellStart time.Time
		if tr != nil {
			opt.FS = fsys
			currentGrid = tr.id()
			currentCells = 0
			opt.OnResult = func(r sweep.CellResult) error {
				now := time.Now()
				tr.record(currentCells, currentGrid, currentGrid, "sweep.cell", cellStart, now)
				algS[r.Algorithm] += now.Sub(cellStart).Seconds()
				algInts[r.Algorithm] += r.Interactions.Mean * float64(r.Interactions.Count)
				currentCells = tr.id()
				cellStart = now
				return nil
			}
		}
		runtime.GC() // every grid starts from the same heap
		start := time.Now()
		cellStart = start
		if tr != nil {
			currentCells = tr.id()
		}
		results, totals, err := sweepd.Run(grid, dir, opt)
		if err != nil {
			return outcome{}, err
		}
		aStart := time.Now()
		a, err := analysis.AnalyzeCheckpoint([]string{dir}, analysis.Options{Seed: e.seed})
		if err != nil {
			return outcome{}, err
		}
		end := time.Now()
		gridS = append(gridS, end.Sub(start).Seconds())
		runs = totals.Runs
		if tr != nil {
			tr.record(tr.id(), currentGrid, currentGrid, "analysis.analyze", aStart, end)
			tr.record(currentGrid, currentGrid, 0, "grid", start, end)
			analyzeS += end.Sub(aStart).Seconds()
		}

		checkGrid(c, dir, results, totals, grid)
		reads, err := readAnalysis(c, dir, e.seed, a, gridReads)
		if err != nil {
			return outcome{}, err
		}
		readMs = append(readMs, reads...)
		raw, err := json.Marshal(results)
		if err != nil {
			return outcome{}, err
		}
		if g == 0 {
			first = raw
			for i := range a.Groups {
				gr := &a.Groups[i]
				if gr.MatchesPrediction() {
					matching++
				}
				fmt.Fprintf(os.Stderr, "report_grid: %s/%s predicted=%q matches=%v\n",
					gr.Scenario, gr.Algorithm, gr.Predicted, gr.MatchesPrediction())
			}
		}
		c.ok(string(raw) == string(first), "grid %d results differ from grid 0 under the same seed", g)
		if err := os.RemoveAll(dir); err != nil {
			return outcome{}, err
		}
	}

	out := outcome{unitSeconds: median(gridS)}
	if tr == nil {
		out.metrics = map[string]metric{
			"setup_s":          {median(setupS), "s"},
			"throughput_per_s": {float64(runs) / out.unitSeconds, "1/s"},
			"latency_p50_ms":   {median(readMs), "ms"},
		}
		return out, nil
	}
	runtime.ReadMemStats(&ms1)
	fsyncs, fsyncS, _, bytes, _ := fsys.totals()
	grids := float64(p.Grids)
	out.metrics = map[string]metric{
		"sweepd.fsyncs":            {float64(fsyncs) / grids, ""},
		"sweepd.fsync_s":           {fsyncS / grids, ""},
		"sweepd.bytes":             {float64(bytes) / grids, ""},
		"analysis.analyze_s":       {analyzeS / grids, ""},
		"analysis.matching_groups": {float64(matching), ""},
		"runtime.gc_cycles":        {float64(ms1.NumGC-ms0.NumGC) / grids, ""},
		"runtime.alloc_mb":         {float64(ms1.TotalAlloc-ms0.TotalAlloc) / grids / (1 << 20), ""},
	}
	for _, alg := range grid.Algorithms {
		out.metrics["sweep."+alg+"_s"] = metric{algS[alg] / grids, ""}
		if algInts[alg] > 0 {
			out.metrics["sweep."+alg+".ns_per_interaction"] = metric{algS[alg] * 1e9 / algInts[alg], ""}
		}
	}
	return out, nil
}

// readAnalysis analyzes the finished checkpoint reads more times, as a
// user re-running the analysis would, timing each read and checking it
// reproduces the first analysis byte for byte.
func readAnalysis(c *checks, dir string, seed uint64, first *analysis.Analysis, reads int) ([]float64, error) {
	want, err := json.Marshal(first)
	if err != nil {
		return nil, err
	}
	// A user re-runs the analysis in a fresh process; collect the grid's
	// garbage first so the reads do not pay for it.
	runtime.GC()
	var readMs []float64
	for i := 0; i < reads; i++ {
		start := time.Now()
		a, err := analysis.AnalyzeCheckpoint([]string{dir}, analysis.Options{Seed: seed})
		el := time.Since(start)
		if err != nil {
			c.fail(err)
			continue
		}
		readMs = append(readMs, ms(el))
		got, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		c.ok(string(got) == string(want), "analysis read %d of %s differs from the first", i, dir)
	}
	return readMs, nil
}

// checkGrid verifies one grid's outputs: every replica terminated, and
// the checkpoint re-read from disk equals the in-memory results and
// totals exactly.
func checkGrid(c *checks, dir string, results []sweep.CellResult, totals sweep.Totals, grid sweep.Grid) {
	cells, err := grid.Cells()
	if err != nil {
		c.fail(err)
		return
	}
	c.ok(len(results) == len(cells), "grid returned %d cells, want %d", len(results), len(cells))
	for _, r := range results {
		c.ok(r.Terminated == r.Replicas, "cell %d (%s n=%d): %d of %d replicas terminated",
			r.Index, r.Algorithm, r.N, r.Terminated, r.Replicas)
	}
	_, loaded, ltotals, err := sweepd.LoadFleet([]string{dir})
	if err != nil {
		c.fail(err)
		return
	}
	c.ok(len(loaded) == len(results), "checkpoint holds %d cells, run returned %d", len(loaded), len(results))
	for i := range loaded {
		if i >= len(results) {
			break
		}
		a, _ := json.Marshal(results[i])
		b, _ := json.Marshal(loaded[i])
		c.ok(string(a) == string(b) && results[i].DurationAcc() == loaded[i].DurationAcc(),
			"cell %d re-read from the checkpoint differs from the run's result", results[i].Index)
	}
	c.ok(totals == ltotals, "checkpoint totals %+v differ from the run's %+v", ltotals, totals)
}
