package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"netdimm/internal/obs"
)

// Every figure in this package is a sweep over independent simulation
// cells: each cell builds its own sim.Engine and machines, so cells share
// no mutable state and can run on separate goroutines. forEachCell is the
// bounded worker pool that fans them out.
//
// Determinism guarantee: a cell writes only its own index of a pre-sized
// result slice, cell inputs are pure values, and every random stream is
// seeded per cell — so the assembled output is byte-identical to the
// sequential path regardless of scheduling. The guard tests in
// determinism_test.go assert exactly that.
//
// The parallelism knob threaded through this package (and the public Run*
// wrappers) means: <= 0 use runtime.GOMAXPROCS(0), 1 run sequentially,
// N use at most N workers.

// workers resolves a parallelism knob for n cells.
func workers(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// forEachCell runs cell(i) for every i in [0, n) on at most `parallelism`
// goroutines (see the knob semantics above). Cells are claimed from an
// atomic counter, so workers stay busy even when cell costs are skewed. A
// panic in any cell is re-raised on the caller's goroutine after all
// workers have drained, matching the sequential failure mode.
func forEachCell(n, parallelism int, cell func(i int)) {
	w := workers(parallelism, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			cell(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				cell(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ForEachCell exposes the bounded worker pool to the other harness layers
// (the campaign runner fans its grid cells out through it), with the same
// determinism and panic-propagation contract as the in-package sweeps.
func ForEachCell(n, parallelism int, cell func(i int)) { forEachCell(n, parallelism, cell) }

// firstError returns the first non-nil error of a per-cell error slice, in
// cell order — the deterministic analogue of the sequential early return.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep runs cell for every index 0..n-1 through forEachCell and returns
// the rows in index order, or the lowest-index cell's error.
func sweep[R any](n, parallelism int, cell func(i int) (R, error)) ([]R, error) {
	rows := make([]R, n)
	errs := make([]error, n)
	forEachCell(n, parallelism, func(i int) { rows[i], errs[i] = cell(i) })
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// newObserver pre-creates one labelled obs cell per sweep cell, or returns
// nil (every Cell call a no-op) when ospec collects nothing.
func newObserver(ospec obs.Spec, n int, label func(i int) string) *obs.Observer {
	if !ospec.Enabled() {
		return nil
	}
	labels := make([]string, n)
	for i := range labels {
		labels[i] = label(i)
	}
	return obs.New(ospec, labels...)
}
