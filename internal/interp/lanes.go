package interp

import (
	"fmt"
	"runtime"
	"sync"
)

// runLanes runs lanes 0…n−1 and joins them: inline on the calling
// goroutine when n ≤ 1, each on a lane goroutine of its own otherwise. It
// is the one place lanes leave the calling goroutine — region gangs,
// kernels-mode gang loops and the worker lanes of a nest that did not
// batch all fan out through it. lane returns the ops it charged; a stop
// signal or panic inside it becomes that lane's error. runLanes returns
// the lowest-numbered failing lane's error, so what a kernel reports does
// not depend on which lane the scheduler finished first, and the op count
// of the slowest lane that succeeded, which is what lanes running in
// parallel cost.
func runLanes(n int, lane func(i int) (int64, error)) (maxOps int64, err error) {
	if n == 1 {
		ops, err := runLane(lane, 0)
		if err != nil {
			return 0, err
		}
		return ops, nil
	}
	r := &laneRun{lane: lane, out: make([]laneResult, n)}
	r.wg.Add(n)
	for i := 0; i < n; i++ {
		startLane(laneTask{r, i})
	}
	r.wg.Wait()
	for _, o := range r.out {
		if o.err != nil {
			if err == nil {
				err = o.err
			}
			continue
		}
		maxOps = max(maxOps, o.ops)
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

// laneRun is one runLanes call: its lanes, their results and its join.
type laneRun struct {
	lane func(i int) (int64, error)
	out  []laneResult
	wg   sync.WaitGroup
}

type laneResult struct {
	ops int64
	err error
}

// laneTask is lane i of a laneRun, handed to a lane goroutine.
type laneTask struct {
	run *laneRun
	i   int
}

// Lane goroutines outlive their lanes. A fresh goroutine starts on a
// 2 KB stack that the interpreter's deep frames (batchExec.run alone is
// 1.6 KB) grow by copying, lane after lane; a goroutine that ran a lane
// before has grown its stack already. So when a lane ends, its goroutine
// parks in idleLanes, waiting on a channel of its own for its next lane,
// and startLane hands new lanes to parked goroutines before it starts any,
// the most recently parked first, whose stack is likeliest still cached.
//
// maxIdleLanes bounds the parked set. lanesInFlight is the most goroutine
// lanes one test of the corpus keeps in flight at once, measured one test
// at a time over the 1.0 suite under the reference compiler and all 24
// vendor releases, the 2.0 templates under Reference20 (both languages,
// functional and cross variants) and the five accbench kernels: 40, in
// loop_worker under CAPS 3.0.8 Fortran, whose redundant worker loop
// declines batching and runs 8 gangs of 4 worker goroutines each. No other
// test keeps more than 10. A suite or sweep runs up to GOMAXPROCS tests at
// once, so that many times lanesInFlight goroutines serve every lane in
// flight from the parked set. A goroutine that finishes a lane while the
// set is full exits; parked goroutines end with their process.
const lanesInFlight = 40

var maxIdleLanes = lanesInFlight * runtime.GOMAXPROCS(0)

// idleLanes is the parked set: each parked goroutine's channel, the most
// recently parked last.
var idleLanes struct {
	sync.Mutex
	next []chan laneTask
}

// startLane runs t on a parked lane goroutine, or on a new one when none
// is parked.
func startLane(t laneTask) {
	idleLanes.Lock()
	if n := len(idleLanes.next); n > 0 {
		next := idleLanes.next[n-1]
		idleLanes.next = idleLanes.next[:n-1]
		idleLanes.Unlock()
		next <- t
		return
	}
	idleLanes.Unlock()
	go laneLoop(t)
}

// laneLoop runs lanes, t first, parking between them while the parked set
// has room.
func laneLoop(t laneTask) {
	next := make(chan laneTask, 1)
	for {
		r := t.run
		o := &r.out[t.i]
		o.ops, o.err = runLane(r.lane, t.i)
		r.wg.Done()
		idleLanes.Lock()
		if len(idleLanes.next) >= maxIdleLanes {
			idleLanes.Unlock()
			return
		}
		idleLanes.next = append(idleLanes.next, next)
		idleLanes.Unlock()
		t = <-next
	}
}
