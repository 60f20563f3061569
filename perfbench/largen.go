package main

// large_n: the sweep fast path at a size where automatic provenance
// resolves to count-only — the batched engine fed by the generator
// adversary and rng.Pair, with no knowledge oracle, journal or server in
// the way. The interaction cap is fixed, so the work does not depend on
// the seed: at n = 131072 neither algorithm comes near terminating.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"doda/internal/adversary"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/rng"
	"doda/internal/scenario"
	"doda/internal/sweep"
)

// The workload's fixed shape: both knowledge-free algorithms on the
// uniform scenario at one size where automatic provenance resolves to
// count-only, one replica per cell, swept by one worker.
const (
	largeNReplicas = 1
	largeN         = 131072
	largeNProv     = "auto"
	largeNWorkers  = 1
	largeNScenario = "uniform"
)

var largeNAlgorithms = []string{"gathering", "waiting"}

type largeNParams struct {
	MaxInteractions int `json:"max_interactions"`
	// Units is how many times the whole grid runs; the first is a
	// warm-up and is not measured.
	Units int `json:"units"`
}

var largeNWorkload = workload{
	name: "large_n",
	fixed: map[string]any{"n": largeN, "scenario": largeNScenario, "algorithms": largeNAlgorithms,
		"replicas": largeNReplicas, "provenance": largeNProv, "workers": largeNWorkers},
	config: func(seconds int) any {
		return largeNParams{MaxInteractions: 1 << 19, Units: 1 + 20*seconds}
	},
	run: func(e *env, p any, c *checks) (outcome, error) { return runLargeN(e, p.(largeNParams), c) },
}

func (p largeNParams) grid(seed uint64) sweep.Grid {
	return sweep.Grid{
		Scenarios:       []sweep.ScenarioRef{{Name: largeNScenario}},
		Algorithms:      largeNAlgorithms,
		Sizes:           []int{largeN},
		Replicas:        largeNReplicas,
		Seed:            seed,
		MaxInteractions: p.MaxInteractions,
		Provenance:      largeNProv,
	}
}

func runLargeN(e *env, p largeNParams, c *checks) (outcome, error) {
	grid := p.grid(e.seed)
	cells, err := grid.Cells()
	if err != nil {
		return outcome{}, err
	}
	spec, ok := scenario.Lookup(largeNScenario)
	if !ok {
		return outcome{}, fmt.Errorf("scenario %s not registered", largeNScenario)
	}
	prov, err := core.ParseProvenanceMode(cells[0].Provenance)
	if err != nil {
		return outcome{}, err
	}
	engCfg := core.Config{N: largeN, MaxInteractions: p.MaxInteractions, VerifyAggregate: true, Provenance: prov}

	// Set-up: the engine build a sweep worker pays before its first
	// interaction — the contact model and an engine sized for n.
	setup := func() error {
		if _, err := spec.Model(largeN, nil); err != nil {
			return err
		}
		_, err := core.NewEngine(engCfg)
		return err
	}

	runs := len(cells) * largeNReplicas
	wantInts := float64(p.MaxInteractions) * float64(runs)
	if e.tr != nil {
		return traceLargeN(e, p, c, cells, spec, engCfg, wantInts)
	}

	var (
		unitS  []float64
		setupS []float64 // the set-up before each unit
		repMs  []float64 // every measured run's latency
		first  []byte
		repAt  time.Time
		warmup = true
	)
	opt := sweep.Options{
		Workers: largeNWorkers,
		OnReplica: func(_ sweep.Cell, _ int, _ sweep.ReplicaOutcome) error {
			now := time.Now()
			if !warmup {
				repMs = append(repMs, ms(now.Sub(repAt)))
			}
			repAt = now
			return nil
		},
	}
	for u := 0; u < p.Units; u++ {
		// A set-up before every unit samples the same moments of the run
		// as the units do, so one slow phase moves its median little.
		x, err := timeSetup(setup)
		if err != nil {
			return outcome{}, err
		}
		setupS = append(setupS, x)
		warmup = u == 0
		start := time.Now()
		repAt = start
		results, totals, err := sweep.Run(grid, opt)
		if err != nil {
			return outcome{}, err
		}
		if !warmup {
			unitS = append(unitS, time.Since(start).Seconds())
		}
		c.ok(totals.Runs == runs && totals.Interactions == wantInts,
			"unit %d ran %d runs / %.0f interactions, want %d / %.0f", u, totals.Runs, totals.Interactions, runs, wantInts)
		c.ok(totals.Terminated == 0, "unit %d: %d runs terminated below the cap", u, totals.Terminated)
		raw, err := json.Marshal(results)
		if err != nil {
			return outcome{}, err
		}
		if u == 0 {
			first = raw
		}
		c.ok(string(raw) == string(first), "unit %d results differ from unit 0 under the same seed", u)
	}
	return outcome{
		unitSeconds: median(unitS),
		metrics: map[string]metric{
			"setup_s":          {median(setupS), "s"},
			"throughput_per_s": {wantInts / median(unitS), "1/s"},
			"latency_p50_ms":   {median(repMs), "ms"},
		},
	}, nil
}

// traceLargeN runs the same cells the way sweep.Run does — a fresh engine
// per unit, reset between runs, a fresh seeded generator per run, run
// seeds drawn from the cell seed — so its results must equal sweep.Run's.
// Each unit plays twice: once with the adversary wrapped, so engine self
// time and generator time separate, and once as is. The tracing overhead
// compares the two, the same loop with and without its instrumentation.
func traceLargeN(e *env, p largeNParams, c *checks, cells []sweep.Cell, spec scenario.Spec,
	engCfg core.Config, wantInts float64) (outcome, error) {
	ref, _, err := sweep.Run(p.grid(e.seed), sweep.Options{Workers: largeNWorkers})
	if err != nil {
		return outcome{}, err
	}
	model, err := spec.Model(largeN, nil)
	if err != nil {
		return outcome{}, err
	}
	tr := e.tr
	var (
		plainS, tracedS  []float64
		runS, advS, ints float64
		gcs              uint32
		alloc            uint64
	)
	// unit plays every cell once, traced or not; a measured traced unit
	// adds to the layer times.
	unit := func(traced, measured bool) error {
		var op int64
		ustart := time.Now()
		if traced {
			op = tr.id()
		}
		var eng *core.Engine
		for ci, cell := range cells {
			var alg core.Algorithm = algorithms.Waiting{}
			if cell.Algorithm == "gathering" {
				alg = algorithms.NewGathering()
			}
			src := rng.New(cell.Seed)
			cellTrans := 0
			for rep := 0; rep < largeNReplicas; rep++ {
				gen, err := adversary.NewGenerated(spec.Name, largeN, model.Generator(rng.New(src.Uint64())))
				if err != nil {
					return err
				}
				var adv core.Adversary = gen
				var timed *timedAdversary
				if traced {
					timed = &timedAdversary{inner: gen}
					adv = timed
				}
				if eng == nil {
					eng, err = core.NewEngine(engCfg)
				} else {
					err = eng.Reset(engCfg)
				}
				if err != nil {
					return err
				}
				rs := time.Now()
				res, err := eng.Run(alg, adv)
				re := time.Now()
				if err != nil {
					return err
				}
				cellTrans += res.Transmissions
				if !traced {
					continue
				}
				runID := tr.id()
				tr.record(runID, op, 0, "core.run", rs, re)
				tr.add(span{ID: tr.id(), Op: op, Parent: runID, Name: "adversary.next_batch",
					Start: timed.first.Sub(tr.t0).Nanoseconds(), End: timed.last.Sub(tr.t0).Nanoseconds(),
					Calls: timed.calls, BusyNs: timed.busy.Nanoseconds()})
				if measured {
					runS += re.Sub(rs).Seconds()
					advS += timed.busy.Seconds()
					ints += float64(res.Interactions)
				}
			}
			c.ok(cellTrans == ref[ci].Transmissions,
				"cell %d made %d transmissions in the loop (traced %v), sweep.Run made %d",
				ci, cellTrans, traced, ref[ci].Transmissions)
		}
		if traced {
			tr.record(op, op, 0, "unit", ustart, time.Now())
		}
		return nil
	}
	var ms0, ms1 runtime.MemStats
	for u := 0; u < p.Units; u++ {
		start := time.Now()
		if err := unit(false, u > 0); err != nil {
			return outcome{}, err
		}
		mid := time.Now()
		runtime.ReadMemStats(&ms0)
		tstart := time.Now()
		if err := unit(true, u > 0); err != nil {
			return outcome{}, err
		}
		end := time.Now()
		runtime.ReadMemStats(&ms1)
		if u > 0 {
			plainS = append(plainS, mid.Sub(start).Seconds())
			tracedS = append(tracedS, end.Sub(tstart).Seconds())
			gcs += ms1.NumGC - ms0.NumGC
			alloc += ms1.TotalAlloc - ms0.TotalAlloc
		}
	}
	measured := float64(p.Units - 1)
	c.ok(ints == wantInts*measured, "traced runs played %.0f interactions, want %.0f", ints, wantInts*measured)
	transmissions := 0
	for _, r := range ref {
		transmissions += r.Transmissions
	}
	return outcome{
		unitSeconds: median(tracedS),
		baseSeconds: median(plainS),
		metrics: map[string]metric{
			"core.ns_per_interaction":      {(runS - advS) * 1e9 / ints, ""},
			"adversary.ns_per_interaction": {advS * 1e9 / ints, ""},
			"core.transmissions":           {float64(transmissions), ""},
			"runtime.gc_cycles":            {float64(gcs), ""},
			"runtime.alloc_mb":             {float64(alloc) / (1 << 20), ""},
		},
	}, nil
}
