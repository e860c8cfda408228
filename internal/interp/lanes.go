package interp

import (
	"fmt"
	"sync"
)

// runLanes runs lanes 0…n−1 and joins them: inline on the calling
// goroutine when n ≤ 1, one goroutine per lane otherwise. It is the one
// place lane goroutines start — region gangs, kernels-mode gang loops and
// the worker lanes of a nest that did not batch all fan out through it.
// lane returns the ops it charged; a stop signal or panic inside it
// becomes that lane's error. runLanes returns the lowest-numbered failing
// lane's error, so what a kernel reports does not depend on which lane the
// scheduler finished first, and the op count of the slowest lane that
// succeeded, which is what lanes running in parallel cost.
func runLanes(n int, lane func(i int) (int64, error)) (maxOps int64, err error) {
	if n == 1 {
		ops, err := runLane(lane, 0)
		if err != nil {
			return 0, err
		}
		return ops, nil
	}
	ops := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			ops[i], errs[i] = runLane(lane, i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			if err == nil {
				err = errs[i]
			}
			continue
		}
		maxOps = max(maxOps, ops[i])
	}
	return maxOps, err
}

// runLane runs one lane under laneRecover.
func runLane(lane func(i int) (int64, error), i int) (ops int64, err error) {
	defer laneRecover(&err)
	return lane(i)
}

// laneRecover, deferred by a lane, turns the stop signal (budget,
// deadline, cancellation) or panic unwinding it into the lane's error.
func laneRecover(err *error) {
	if rec := recover(); rec != nil {
		if s, ok := rec.(stopSignal); ok {
			*err = s.err
		} else {
			*err = &RuntimeError{Msg: fmt.Sprintf("internal fault in kernel: %v", rec)}
		}
	}
}
