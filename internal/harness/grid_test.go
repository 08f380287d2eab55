package harness

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mallacc/internal/mem"
	"mallacc/internal/stats"
	"mallacc/internal/tcmalloc"
	"mallacc/internal/workload"
)

// TestInOrderDeliversInInputOrder: cells finish out of order (later cells
// are faster), yet results and the each callback follow input order.
func TestInOrderDeliversInInputOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cells := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var seen []int
	out := InOrder(cells, func(c int) int {
		time.Sleep(time.Duration(len(cells)-c) * time.Millisecond)
		return c * c
	}, func(i, r int) {
		if r != i*i {
			t.Errorf("each(%d) got %d", i, r)
		}
		seen = append(seen, i)
	})
	for i, r := range out {
		if r != i*i || seen[i] != i {
			t.Fatalf("slot %d: result %d, delivered %v", i, r, seen)
		}
	}
}

// TestInOrderReraisesPanicInOrder: a panicking cell is re-raised on the
// calling goroutine once every earlier cell has been delivered, and cells
// not yet started are skipped.
func TestInOrderReraisesPanicInOrder(t *testing.T) {
	cells := make([]int, 64)
	for i := range cells {
		cells[i] = i
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var started atomic.Int32
			var delivered []int
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				InOrder(cells, func(c int) int {
					started.Add(1)
					time.Sleep(time.Millisecond)
					if c == 3 {
						panic("cell 3")
					}
					return c
				}, func(i, _ int) { delivered = append(delivered, i) })
			}()
			if recovered != "cell 3" {
				t.Fatalf("GOMAXPROCS=%d: recovered %v, want the cell's panic", procs, recovered)
			}
			if !reflect.DeepEqual(delivered, []int{0, 1, 2}) {
				t.Fatalf("GOMAXPROCS=%d: delivered %v, want [0 1 2]", procs, delivered)
			}
			if n := started.Load(); n == int32(len(cells)) {
				t.Fatalf("GOMAXPROCS=%d: every cell started despite the panic", procs)
			}
		}()
	}
}

// mapPeak wraps a workload and recomputes its peak rounded-live footprint
// the way the driver did before it read sizes back from the page map: a
// per-object table filled on malloc and drained on free.
type mapPeak struct {
	workload.Workload
	sizes     *tcmalloc.SizeMap
	live      map[uint64]uint64
	cur, peak uint64
}

func (m *mapPeak) Footprint() uint64 { return workload.FootprintOf(m.Workload) }

func (m *mapPeak) Run(app workload.App, budget int, rng *stats.RNG) {
	m.Workload.Run(peakApp{App: app, m: m}, budget, rng)
}

// peakApp intercepts the allocator calls of one run.
type peakApp struct {
	workload.App
	m *mapPeak
}

func (a peakApp) Malloc(size uint64) uint64 {
	addr := a.App.Malloc(size)
	rounded := mem.RoundUp(size, mem.PageSize)
	if _, r, ok := a.m.sizes.ClassFor(size); ok {
		rounded = r
	}
	a.m.live[addr] = rounded
	a.m.cur += rounded
	a.m.peak = max(a.m.peak, a.m.cur)
	return addr
}

func (a peakApp) Free(addr, hint uint64) {
	if r, ok := a.m.live[addr]; ok {
		a.m.cur -= r
		delete(a.m.live, addr)
	}
	a.App.Free(addr, hint)
}

// TestPeakLiveFromPageMap: the driver's peak rounded-live footprint, with
// frees sized from the page map, equals the per-object table's on every
// macro and micro workload at the experiments' default budget, for the
// baseline and the Mallacc heap.
func TestPeakLiveFromPageMap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at 60k calls")
	}
	sizes := tcmalloc.New(tcmalloc.DefaultConfig()).SizeMap
	var grid []Options
	var wrapped []*mapPeak
	for _, w := range append(workload.Macro(), workload.Micro()...) {
		for _, v := range []Variant{VariantBaseline, VariantMallacc} {
			m := &mapPeak{Workload: w, sizes: sizes, live: map[uint64]uint64{}}
			wrapped = append(wrapped, m)
			grid = append(grid, Options{Workload: m, Variant: v, Calls: 60000, Seed: 1})
		}
	}
	for i, r := range InOrder(grid, Run, nil) {
		if r.PeakLiveBytes == 0 || r.PeakLiveBytes != wrapped[i].peak {
			t.Errorf("%s/%s: PeakLiveBytes %d, per-object table %d",
				r.Workload, r.Variant, r.PeakLiveBytes, wrapped[i].peak)
		}
	}
}
