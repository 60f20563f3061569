package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (the definition Python's statistics.quantiles uses
// with method="inclusive"). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the middle value of xs. Rates and latencies are medians
// over the whole run: the median unit's rate and the median of every
// measured operation's latency. On a small shared machine the same code
// runs up to twice as slow for seconds at a time, so within one run unit
// times spread 1.5–2.5×. On a 2-vCPU VM the extremes of that spread (the
// fastest unit, the lowest per-unit median) moved 10–19% between runs of
// the same code on the serving and grid workloads; the medians moved 5–9%.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup times one set-up, started from a collected heap so the
// garbage of the work before it does not land in its time.
func timeSetup(setup func() error) (float64, error) {
	runtime.GC()
	start := time.Now()
	err := setup()
	return time.Since(start).Seconds(), err
}

// setupMedian times reps set-ups and returns the median in seconds. Each
// set-up returns the teardown that undoes it, which runs untimed; the
// last one's teardown is skipped and its result kept, so the measured
// work continues on a set-up that was itself timed.
func setupMedian[T any](reps int, setup func() (T, func(), error)) (T, float64, error) {
	var (
		v        T
		teardown func()
		xs       = make([]float64, 0, reps)
	)
	for i := 0; i < reps; i++ {
		if teardown != nil {
			teardown()
		}
		x, err := timeSetup(func() (err error) {
			v, teardown, err = setup()
			return err
		})
		if err != nil {
			var zero T
			return zero, 0, err
		}
		xs = append(xs, x)
	}
	return v, median(xs), nil
}
