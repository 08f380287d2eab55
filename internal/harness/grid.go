package harness

import (
	"runtime"
	"sync/atomic"
)

// InOrder runs run(cells[i]) for every cell of a grid on up to GOMAXPROCS
// goroutines and returns the results in input order. Cells must be
// independent simulations: each is deterministic whatever the host
// scheduling, and results are consumed strictly by input slot, so anything
// built from them is byte-identical to a sequential sweep.
//
// each, when non-nil, is called on the calling goroutine once per cell, in
// input order, as soon as that cell and every cell before it have
// finished; side effects a caller hangs on it (progress events) keep the
// sequential order too.
//
// A panic in a cell is recovered on its worker and re-raised on the
// calling goroutine when the cell's slot comes up, after every earlier
// cell has been delivered; cells not yet started are then skipped. At
// GOMAXPROCS 1 the cells run one after another on the calling goroutine.
func InOrder[C, R any](cells []C, run func(C) R, each func(int, R)) []R {
	out := make([]R, len(cells))
	workers := min(runtime.GOMAXPROCS(0), len(cells))
	if workers <= 1 {
		for i, c := range cells {
			out[i] = run(c)
			if each != nil {
				each(i, out[i])
			}
		}
		return out
	}

	type done struct {
		i        int
		panicked bool
		val      any
	}
	// The channel holds every completion, so a worker never blocks on a
	// caller that has stopped reading.
	finished := make(chan done, len(cells))
	var next atomic.Int64
	var stop atomic.Bool
	defer stop.Store(true)
	for w := 0; w < workers; w++ {
		go func() {
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				finished <- func() (d done) {
					d.i = i
					defer func() {
						if v := recover(); v != nil {
							d.panicked, d.val = true, v
						}
					}()
					out[i] = run(cells[i])
					return d
				}()
			}
		}()
	}

	pending := make([]*done, len(cells))
	for k := 0; k < len(cells); {
		d := <-finished
		pending[d.i] = &d
		for ; k < len(cells) && pending[k] != nil; k++ {
			if pending[k].panicked {
				panic(pending[k].val)
			}
			if each != nil {
				each(k, out[k])
			}
		}
	}
	return out
}
