package device

import "sync"

// Queue is an async activity queue keyed by an OpenACC async tag.
// Operations enqueued on the same queue execute in FIFO order on a single
// worker goroutine, matching the ordering guarantee of OpenACC async
// clauses with equal tags. Errors raised by async operations are deferred
// and reported at the next Wait.
type Queue struct {
	Tag int64

	// stats, when set (Device.Queue does), receives the wait counter
	// behind the accv_queue_waits_total metric.
	stats *Stats

	mu      sync.Mutex
	cond    *sync.Cond
	ops     []func() error
	running bool
	closed  bool
	unseen  bool  // work enqueued since the last Test or Wait
	err     error // first deferred error since the last Wait
}

func newQueue(tag int64) *Queue {
	q := &Queue{Tag: tag}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Enqueue schedules op on the queue.
func (q *Queue) Enqueue(op func() error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.ops = append(q.ops, op)
	q.unseen = true
	if !q.running {
		q.running = true
		go q.drain()
	}
}

// drain executes queued operations until the queue empties.
func (q *Queue) drain() {
	q.mu.Lock()
	for {
		if len(q.ops) == 0 || q.closed {
			q.running = false
			q.cond.Broadcast()
			q.mu.Unlock()
			return
		}
		op := q.ops[0]
		q.ops = q.ops[1:]
		q.mu.Unlock()
		err := op()
		q.mu.Lock()
		if err != nil && q.err == nil {
			q.err = err
		}
	}
}

// Test reports whether all activities on the queue have completed
// (acc_async_test semantics: nonzero when done). The first Test after new
// work is enqueued reports it pending whether or not the worker finished
// it, so a program's first acc_async_test answer does not depend on how
// fast the host reached the call; later ones report the real state, so a
// polling loop still ends.
func (q *Queue) Test() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.unseen {
		q.unseen = false
		return false
	}
	return !q.running && len(q.ops) == 0
}

// Wait blocks until the queue drains and returns (and clears) the first
// deferred error.
func (q *Queue) Wait() error {
	if q.stats != nil {
		q.stats.QueueWaits.Add(1)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.running || len(q.ops) > 0 {
		q.cond.Wait()
	}
	q.unseen = false
	err := q.err
	q.err = nil
	return err
}

// Close marks the queue dead; pending ops are dropped. Used at device reset.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.ops = nil
	q.cond.Broadcast()
	q.mu.Unlock()
}
