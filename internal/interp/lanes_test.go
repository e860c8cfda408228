package interp

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accv/internal/cfront"
	"accv/internal/compiler"
)

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

func TestRunLanes(t *testing.T) {
	t.Run("lowest failing lane wins", func(t *testing.T) {
		// Lane 3 fails first; lane 1 fails only after it. The report must
		// still be lane 1's.
		e1, e3 := errors.New("lane 1"), errors.New("lane 3")
		lane3Failed := make(chan struct{})
		_, err := runLanes(4, func(i int) (int64, error) {
			switch i {
			case 1:
				<-lane3Failed
				return 0, e1
			case 3:
				defer close(lane3Failed)
				return 0, e3
			}
			return 0, nil
		})
		if err != e1 {
			t.Fatalf("want lane 1's error, got %v", err)
		}
	})

	t.Run("stop signal and panic become lane errors", func(t *testing.T) {
		_, err := runLanes(3, func(i int) (int64, error) {
			switch i {
			case 0:
				panic(stopSignal{ErrBudget})
			case 1:
				panic("boom")
			}
			return 0, errors.New("lane 2")
		})
		if err != ErrBudget {
			t.Fatalf("want lane 0's stop signal, got %v", err)
		}
		_, err = runLanes(2, func(i int) (int64, error) {
			if i == 0 {
				return 0, nil
			}
			panic("boom")
		})
		var re *RuntimeError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "internal fault in kernel: boom") {
			t.Fatalf("want an internal-fault runtime error, got %v", err)
		}
	})

	t.Run("slowest successful lane is charged", func(t *testing.T) {
		ops := []int64{5, 9, 100, 7}
		maxOps, err := runLanes(len(ops), func(i int) (int64, error) {
			if i == 2 {
				return ops[i], errors.New("lane 2")
			}
			return ops[i], nil
		})
		if err == nil || maxOps != 9 {
			t.Fatalf("want 9 ops from lane 1 and lane 2's error, got %d, %v", maxOps, err)
		}
		maxOps, err = runLanes(1, func(int) (int64, error) { return 5, errors.New("lane 0") })
		if err == nil || maxOps != 0 {
			t.Fatalf("a lone failing lane charges nothing, got %d, %v", maxOps, err)
		}
	})

	t.Run("lanes run concurrently", func(t *testing.T) {
		// Every lane waits until all have started, which only lanes on
		// goroutines of their own can do.
		const n = 4
		started := make(chan struct{}, n)
		all := make(chan struct{})
		go func() {
			for i := 0; i < n; i++ {
				<-started
			}
			close(all)
		}()
		caller := goid()
		_, err := runLanes(n, func(i int) (int64, error) {
			if goid() == caller {
				return 0, errors.New("lane ran on the caller's goroutine")
			}
			started <- struct{}{}
			select {
			case <-all:
				return 0, nil
			case <-time.After(10 * time.Second):
				return 0, errors.New("lanes did not run concurrently")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("one lane runs inline", func(t *testing.T) {
		caller := goid()
		calls := 0
		maxOps, err := runLanes(1, func(i int) (int64, error) {
			calls++
			if i != 0 || goid() != caller {
				return 0, errors.New("lane 0 did not run on the caller's goroutine")
			}
			panic(stopSignal{ErrDeadline})
		})
		if calls != 1 || err != ErrDeadline || maxOps != 0 {
			t.Fatalf("want one inline call ending in its stop signal, got %d calls, %d ops, %v", calls, maxOps, err)
		}
		if _, err := runLanes(0, func(int) (int64, error) {
			t.Fatal("zero lanes must run nothing")
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLanePool holds the reused lane goroutines to runLanes' contract.
func TestLanePool(t *testing.T) {
	t.Run("a failed launch leaves every lane of the next one running", func(t *testing.T) {
		for round := 0; round < 3; round++ {
			_, err := runLanes(8, func(i int) (int64, error) {
				switch i % 3 {
				case 0:
					panic(stopSignal{ErrBudget})
				case 1:
					panic("boom")
				}
				return 0, nil
			})
			if err != ErrBudget {
				t.Fatalf("round %d: want lane 0's budget stop, got %v", round, err)
			}
			var ran atomic.Int64
			maxOps, err := runLanes(64, func(i int) (int64, error) {
				ran.Add(1)
				return int64(i), nil
			})
			if err != nil || ran.Load() != 64 || maxOps != 63 {
				t.Fatalf("round %d: %d of 64 lanes ran, %d ops, %v", round, ran.Load(), maxOps, err)
			}
		}
	})

	t.Run("concurrent launches share the parked set", func(t *testing.T) {
		// Region launches of concurrent runs, and the worker fan-outs of
		// their gangs, hand lanes out and park goroutines at once.
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					maxOps, err := runLanes(4, func(g int) (int64, error) {
						return runLanes(3, func(w int) (int64, error) {
							return int64(c + g + w), nil
						})
					})
					if err != nil || maxOps != int64(c+3+2) {
						t.Errorf("launcher %d, round %d: %d ops, %v", c, round, maxOps, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	})

	t.Run("the parked set stays within its bound", func(t *testing.T) {
		// Keep 512 lanes in flight at once, so 512 goroutines run them,
		// then wait for every goroutine past the bound to exit.
		const n = 512
		before := runtime.NumGoroutine() - parkedLanes()
		var started atomic.Int64
		all := make(chan struct{})
		_, err := runLanes(n, func(int) (int64, error) {
			if started.Add(1) == n {
				close(all)
			}
			select {
			case <-all:
				return 0, nil
			case <-time.After(10 * time.Second):
				return 0, errors.New("lanes did not run concurrently")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before+maxIdleLanes {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the launch, want at most %d (%d parked)",
					runtime.NumGoroutine(), before+maxIdleLanes, parkedLanes())
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// parkedLanes counts the parked lane goroutines.
func parkedLanes() int {
	idleLanes.Lock()
	defer idleLanes.Unlock()
	return len(idleLanes.next)
}

// TestKernelLaneOpsReachTheTotal holds every op a kernel lane charges to
// Result.Ops: a lane's last ops, fewer than one 64-op flush, count too.
func TestKernelLaneOpsReachTheTotal(t *testing.T) {
	ops := func(eng Engine, stmts int) int64 {
		src := `
int acc_test() {
    int x = 0;
    #pragma acc parallel num_gangs(1) copy(x)
    {
` + strings.Repeat("        x = x + 1;\n", stmts) + `    }
    return x;
}`
		prog, err := cfront.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		exe, _, err := compiler.Compile(prog, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := Run(exe, RunConfig{Engine: eng, Seed: 1})
		if res.Err != nil || res.Exit != int64(stmts) {
			t.Fatalf("%s engine, %d statements: exit %d, %v", eng, stmts, res.Exit, res.Err)
		}
		return res.Ops
	}
	for _, eng := range []Engine{EngineVM, EngineTree} {
		base := ops(eng, 0)
		for _, n := range []int{30, 70} {
			if got := ops(eng, n) - base; got != int64(n) {
				t.Errorf("%s engine: %d more statements charged %d more ops", eng, n, got)
			}
		}
	}
}

// BenchmarkRunLanes measures kernel fan-out/join overhead at a typical
// gang count.
func BenchmarkRunLanes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runLanes(8, func(int) (int64, error) { return 0, nil }); err != nil {
			b.Fatal(err)
		}
	}
}
