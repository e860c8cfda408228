package interp

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
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

// BenchmarkRunLanes measures kernel fan-out/join overhead at a typical
// gang count.
func BenchmarkRunLanes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runLanes(8, func(int) (int64, error) { return 0, nil }); err != nil {
			b.Fatal(err)
		}
	}
}
