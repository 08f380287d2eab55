package simsvc

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"mallacc/internal/harness"
	"mallacc/internal/progress"
	"mallacc/internal/workload"
)

// atLeastTwoProcs runs the test with GOMAXPROCS >= 2, so experiment grids
// really fan out.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestGridCancelMidGrid cancels a fig13 job after its first cells have
// reported: the job ends canceled, no panic is counted, and the service
// goes on serving.
func TestGridCancelMidGrid(t *testing.T) {
	atLeastTwoProcs(t)
	svc := newTestService(t, Config{Workers: 1})
	st, err := svc.Submit(JobSpec{Experiment: "fig13", Calls: 20000, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	log, err := svc.Events(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx := watchdog(t)
	for from := 0; ; {
		events, closed, wake := log.snapshotFrom(from)
		progressed := false
		for _, e := range events {
			progressed = progressed || e.Type == EventProgress
		}
		if progressed {
			break
		}
		if closed {
			t.Fatal("job ended before any cell reported")
		}
		from += len(events)
		select {
		case <-wake:
		case <-ctx.Done():
			t.Fatal("no progress event")
		}
	}
	if _, err := svc.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := svc.Await(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if n := svc.Registry().Snapshot().Value("simsvc.jobs.panics"); n != 0 {
		t.Fatalf("cancellation counted as %v panics", n)
	}
	submitWait(t, svc, JobSpec{Workload: "ubench.gauss", Calls: 1000, Seed: 3})
}

// TestGridCellPanicFailsOnlyItsJob: a grid cell that panics on a grid
// worker fails the job whose grid it is — the panic is re-raised on that
// job's goroutine, where the scheduler isolates it — while a job running
// a healthy grid on the same service at the same time completes.
func TestGridCellPanicFailsOnlyItsJob(t *testing.T) {
	atLeastTwoProcs(t)
	svc := newTestService(t, Config{Workers: 1})
	gauss, _ := workload.ByName("ubench.gauss")
	sched := NewScheduler(SchedulerConfig{Workers: 2, MaxAttempts: 1, Runner: func(ctx context.Context, spec JobSpec, rep progress.Reporter) ([]byte, error) {
		grid := []harness.Options{
			{Workload: gauss, Calls: 1000, Seed: spec.Seed},
			{Workload: gauss, Calls: 1000, Seed: spec.Seed + 100},
		}
		if spec.Seed == 1 {
			// An unknown backend makes harness.Run panic.
			grid = append(grid[:1], harness.Options{Workload: gauss, Backend: "no-such-backend", Calls: 1000}, grid[1])
		}
		res := svc.gridSubmitter(ctx, &experimentProgress{rep: rep})(grid)
		return json.Marshal(len(res))
	}})
	t.Cleanup(func() { sched.Drain(watchdog(t)) })

	bad, _ := sched.Enqueue(testSpec(t, 0), "bad")
	good, _ := sched.Enqueue(testSpec(t, 1), "good")
	st, err := sched.Await(watchdog(t), bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "no-such-backend") {
		t.Fatalf("panicking grid: %s (%s)", st.State, st.Error)
	}
	if st, err = sched.Await(watchdog(t), good.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("healthy grid: %s (%s)", st.State, st.Error)
	}
	if got := sched.panics.Load(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	// The failed cell memoized nothing; the service still serves.
	submitWait(t, svc, JobSpec{Workload: "ubench.gauss", Calls: 1000, Seed: 5})
}

// TestInFlightRunDedup runs fig13 and fig14, which share all 24 cells, on
// two workers at once: each cell is simulated once, and the job that asks
// second — whether the cell is done or still in flight — counts a hit.
func TestInFlightRunDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments")
	}
	atLeastTwoProcs(t)
	svc := newTestService(t, Config{Workers: 2})
	a, err := svc.Submit(JobSpec{Experiment: "fig13", Calls: 3000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(JobSpec{Experiment: "fig14", Calls: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st, err := svc.Await(watchdog(t), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	snap := svc.Registry().Snapshot()
	if h, m := snap.Value("simsvc.runcache.hits"), snap.Value("simsvc.runcache.misses"); h != 24 || m != 24 {
		t.Fatalf("runcache hits/misses = %v/%v, want 24/24", h, m)
	}
}

// TestRunMemoWaitersShareOneRun: concurrent callers of one key run the
// computation once and all receive its result.
func TestRunMemoWaitersShareOneRun(t *testing.T) {
	var m runMemo[int]
	release := make(chan struct{})
	calls := 0
	results := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func() {
			results <- m.get("k", func() int {
				calls++
				<-release
				return 42
			})
		}()
	}
	// Wait until one caller computes and the other three wait on it.
	for deadline := time.Now().Add(10 * time.Second); m.hits.Load() != 3; {
		if time.Now().After(deadline) {
			t.Fatalf("hits = %d, want 3 waiters", m.hits.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 4; i++ {
		if r := <-results; r != 42 {
			t.Fatalf("result %d, want 42", r)
		}
	}
	if calls != 1 || m.misses.Load() != 1 {
		t.Fatalf("computed %d times, %d misses; want 1", calls, m.misses.Load())
	}
}
