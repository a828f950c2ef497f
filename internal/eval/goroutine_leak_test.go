package eval

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"perm/internal/synth"
)

// waitGoroutineBaseline asserts the process returns to (at most) baseline
// goroutines. Worker exits are synchronized by wg.Wait before Eval returns,
// but the runtime's accounting of a just-returned goroutine can lag, so
// poll briefly before declaring a leak — and dump all stacks when one is
// real so the stuck worker is identifiable.
func waitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d; stacks:\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerPoolGoroutineExit is the regression test for the executor's only
// worker pool, the streaming pipeline's parallelSegment: every termination
// path — clean completion, early errStop when the row budget trips inside a
// worker, and context cancellation mid-fanout — must leave zero worker
// goroutines behind. A leaked worker holds its mailbox and its forked
// evaluator; under -race this test also shakes out unsynchronized worker
// exits.
func TestWorkerPoolGoroutineExit(t *testing.T) {
	w := synth.Workload{InputSize: 200, SublinkSize: 100, Seed: 1}
	cat := w.Catalog()
	plan := compileOptimized(t, cat, w.Q3(0))

	t.Run("clean completion", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ev := New(cat)
		ev.Parallelism = 4
		if _, err := ev.Eval(plan); err != nil {
			t.Fatalf("eval: %v", err)
		}
		waitGoroutineBaseline(t, baseline)
	})

	t.Run("errStop on row budget", func(t *testing.T) {
		// The budget trips inside a worker of Q4's EXISTS segment
		// mid-stream; the producer sees the failure flag, stops with
		// errStop, closes every mailbox, and the workers must all drain out.
		q4cat, q4 := q4Workload(t)
		db := &workerScanDB{DB: q4cat, table: "r2"}
		baseline := runtime.NumGoroutine()
		ev := New(db)
		ev.Parallelism = 4
		ev.MaxRows = 5
		if _, err := ev.Eval(q4); !errors.Is(err, ErrBudget) {
			t.Fatalf("want ErrBudget, got %v", err)
		}
		if db.onWorker.Load() == 0 {
			t.Fatal("no r2 scan ran on a segment worker: the plan never fanned out")
		}
		waitGoroutineBaseline(t, baseline)
	})

	t.Run("cancellation mid-fanout", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ev := New(cat).WithContext(ctx)
		ev.Parallelism = 4
		if _, err := ev.Eval(plan); !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
		waitGoroutineBaseline(t, baseline)
	})

	t.Run("cancellation while streaming", func(t *testing.T) {
		// Cancel concurrently with evaluation: depending on timing the
		// cancellation lands before, during or after fan-out, and every
		// variant must terminate promptly with no stragglers.
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Millisecond)
			cancel()
		}()
		ev := New(cat).WithContext(ctx)
		ev.Parallelism = 4
		if _, err := ev.Eval(plan); err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("want nil or ErrCanceled, got %v", err)
		}
		cancel()
		waitGoroutineBaseline(t, baseline)
	})
}
