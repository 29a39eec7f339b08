package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/rats"
)

// ErrOverloaded is returned by Do when the bounded queue is full; the
// HTTP layer translates it into 429 with a Retry-After hint.
var ErrOverloaded = errors.New("serve: queue full")

// ErrDraining is returned by Do once Drain has begun; the HTTP layer
// translates it into 503.
var ErrDraining = errors.New("serve: draining")

// job is one accepted scheduling request on its way through the
// dispatcher. Every job Do accepts is answered exactly once — run, or
// timed out if its context ends while it waits — including during drain
// and when the pipeline panics, which is the invariant the
// graceful-shutdown guarantee rests on.
type job struct {
	spec *requestSpec
	dag  *rats.DAG
	// m is the request's timing record: the handler fills in its identity
	// and decode time, the run function the rest.
	m RequestMetrics

	ctx context.Context // carries the per-request deadline
	enq time.Time       // handler entry; queue wait is measured from here
}

type jobResult struct {
	result  *rats.Result
	metrics RequestMetrics
	stack   []byte // the stack trace when the run panicked, else nil
}

// dispatcher runs accepted jobs in arrival order, at most workers at a
// time. It is work-conserving: a job starts as soon as an executor slot is
// free and never waits for company. A job runs on the goroutine that
// handed it in — the request's own handler — so its answer is encoded the
// moment it is ready rather than after a hand-off back from an executor
// goroutine, which the Go scheduler may leave waiting behind that
// executor's next job.
type dispatcher struct {
	run      func(*job) jobResult
	workers  int
	maxQueue int

	mu       sync.Mutex
	running  int             // jobs holding an executor slot
	waiting  []chan struct{} // jobs waiting for a slot, oldest first
	draining bool

	inflight sync.WaitGroup // accepted jobs not yet run
}

func newDispatcher(maxQueue, workers int, run func(*job) jobResult) *dispatcher {
	return &dispatcher{run: run, workers: workers, maxQueue: maxQueue}
}

// Do runs j once an executor slot is free and returns its result. It
// returns ErrDraining after Drain has begun and ErrOverloaded when
// maxQueue jobs are already unfinished; otherwise it calls admitted, if
// not nil, as soon as j is accepted, and j is run even if Drain begins
// while it waits. A job whose context ends while it waits leaves the
// queue without taking a slot and is answered with a timeout.
func (d *dispatcher) Do(j *job, admitted func()) (jobResult, error) {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return jobResult{}, ErrDraining
	}
	if d.running+len(d.waiting) >= d.maxQueue {
		d.mu.Unlock()
		return jobResult{}, ErrOverloaded
	}
	d.inflight.Add(1)
	defer d.inflight.Done()
	var turn chan struct{}
	if d.running < d.workers {
		d.running++
	} else {
		turn = make(chan struct{})
		d.waiting = append(d.waiting, turn)
	}
	d.mu.Unlock()

	if admitted != nil {
		admitted()
	}
	if turn != nil {
		select {
		case <-turn:
		case <-j.ctx.Done():
			if d.leave(turn) {
				return timedOut(j), nil
			}
			// release handed this job the slot first: run it as usual
			// (runJob answers an expired job at once) so the slot passes on.
			<-turn
		}
	}
	defer d.release()
	return d.runIsolated(j), nil
}

// leave takes a waiting job's turn out of the queue and reports whether
// it was still there; false means release has already handed it the slot.
func (d *dispatcher) leave(turn chan struct{}) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, w := range d.waiting {
		if w == turn {
			d.waiting = append(d.waiting[:i], d.waiting[i+1:]...)
			return true
		}
	}
	return false
}

// timedOut answers a job whose context ended before it ran.
func timedOut(j *job) jobResult {
	m := j.m
	m.QueueWaitMs = ms(time.Since(j.enq))
	m.TotalMs = m.QueueWaitMs
	m.Status = statusTimeout
	m.Error = fmt.Sprintf("deadline passed before execution: %v", j.ctx.Err())
	return jobResult{metrics: m}
}

// release hands a finished job's slot to the oldest waiting job, or frees
// it when none waits.
func (d *dispatcher) release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.waiting) == 0 {
		d.running--
		return
	}
	close(d.waiting[0])
	d.waiting[0] = nil
	d.waiting = d.waiting[1:]
}

// Queued reports the number of accepted-but-unfinished jobs.
func (d *dispatcher) Queued() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.running + len(d.waiting)
}

// Drain stops intake and blocks until every accepted job has been answered.
// Call it once, from the shutdown path.
func (d *dispatcher) Drain() {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	d.inflight.Wait()
}

// runIsolated runs one job and turns a panic in it into a 500 answer for
// that job alone; its slot is released as usual, so the queue keeps
// moving.
func (d *dispatcher) runIsolated(j *job) (jr jobResult) {
	defer func() {
		if r := recover(); r != nil {
			jr = jobResult{metrics: j.m, stack: debug.Stack()}
			jr.metrics.Status = http.StatusInternalServerError
			jr.metrics.Error = fmt.Sprintf("panic: %v", r)
			jr.metrics.TotalMs = ms(time.Since(j.enq))
		}
	}()
	return d.run(j)
}
