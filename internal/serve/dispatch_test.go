package serve

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testJob builds a minimal job for dispatcher-level tests (no DAG needed:
// the run function is supplied by the test).
func testJob(id uint64) *job {
	return &job{m: RequestMetrics{ID: id}, ctx: context.Background(), enq: time.Now()}
}

type outcome struct {
	jr  jobResult
	err error
}

// submit hands j to the dispatcher from a new goroutine, as a request
// handler would, and returns the channel its outcome arrives on.
func submit(d *dispatcher, j *job, admitted func()) <-chan outcome {
	out := make(chan outcome, 1)
	go func() {
		jr, err := d.Do(j, admitted)
		out <- outcome{jr, err}
	}()
	return out
}

// answered waits for an accepted job's result, failing the test if none
// arrives in time.
func answered(t *testing.T, out <-chan outcome) jobResult {
	t.Helper()
	select {
	case o := <-out:
		if o.err != nil {
			t.Fatalf("job refused: %v", o.err)
		}
		return o.jr
	case <-time.After(5 * time.Second):
		t.Fatal("job never answered")
		return jobResult{}
	}
}

// waitQueued waits until the dispatcher holds n unfinished jobs.
func waitQueued(t *testing.T, d *dispatcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.Queued() != n {
		if time.Now().After(deadline) {
			t.Fatalf("Queued() = %d, want %d", d.Queued(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func okRun(j *job) jobResult {
	return jobResult{metrics: RequestMetrics{ID: j.m.ID, Status: statusOK}}
}

// TestDispatcherRunsJobOnIdlePool: a job handed to an idle pool runs
// without any later submission to push it along — no window, no waiting
// for company.
func TestDispatcherRunsJobOnIdlePool(t *testing.T) {
	d := newDispatcher(4, 1, okRun)
	defer d.Drain()

	if jr := answered(t, submit(d, testJob(1), nil)); jr.metrics.Status != statusOK {
		t.Fatalf("lone job answered %+v", jr.metrics)
	}
}

// TestDispatcherRunsInFIFOOrder: with one executor slot, jobs start in
// the order Do accepted them, and each is counted as admitted while it
// still waits for its turn.
func TestDispatcherRunsInFIFOOrder(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var order []uint64 // written by one running job at a time
	d := newDispatcher(16, 1, func(j *job) jobResult {
		if j.m.ID == 0 {
			close(held)
			<-release
		}
		order = append(order, j.m.ID)
		return okRun(j)
	})
	defer d.Drain()

	var admitted atomic.Int64
	outs := make([]<-chan outcome, 8)
	for i := range outs {
		outs[i] = submit(d, testJob(uint64(i)), func() { admitted.Add(1) })
		if i == 0 {
			<-held // job 0 holds the slot while the rest queue up
		}
		waitQueued(t, d, i+1)
	}
	if got := admitted.Load(); got != int64(len(outs)) {
		t.Fatalf("%d jobs counted as admitted while queued, want %d", got, len(outs))
	}
	close(release)
	for _, out := range outs {
		answered(t, out)
	}
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("run order %v, want 0..%d in submission order", order, len(outs)-1)
		}
	}
}

func TestDispatcherShedsPastMaxQueue(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	d := newDispatcher(2, 1, func(j *job) jobResult {
		if j.m.ID == 1 {
			close(held)
			<-release
		}
		return okRun(j)
	})
	defer d.Drain()

	// Fill the queue: the single slot holds the first job, so the second
	// waits and the third is past MaxQueue.
	first := submit(d, testJob(1), nil)
	<-held
	second := submit(d, testJob(2), nil)
	waitQueued(t, d, 2)
	if _, err := d.Do(testJob(3), nil); err != ErrOverloaded {
		t.Fatalf("third job past MaxQueue=2: got %v, want ErrOverloaded", err)
	}
	close(release)
	answered(t, first)
	answered(t, second)
	// The shed job took no slot: once both are answered the queue is
	// empty and accepts again.
	if got := d.Queued(); got != 0 {
		t.Fatalf("Queued() = %d after every accepted job was answered, want 0", got)
	}
	if _, err := d.Do(testJob(4), nil); err != nil {
		t.Fatalf("job after the queue emptied: %v", err)
	}
}

// TestDispatcherIsolatesPanics: a run that panics answers its own job
// with 500 and the panic's message; the jobs queued behind it still run,
// the queue count returns to zero and Drain returns.
func TestDispatcherIsolatesPanics(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	d := newDispatcher(16, 1, func(j *job) jobResult {
		switch j.m.ID {
		case 0:
			close(held)
			<-release
		case 2:
			panic("boom")
		}
		return okRun(j)
	})

	outs := make([]<-chan outcome, 5)
	for i := range outs {
		outs[i] = submit(d, testJob(uint64(i)), nil)
		if i == 0 {
			<-held // queue the rest, the panicking job among them
		}
		waitQueued(t, d, i+1)
	}
	close(release)
	for i, out := range outs {
		jr := answered(t, out)
		if i == 2 {
			if jr.metrics.Status != http.StatusInternalServerError ||
				!strings.Contains(jr.metrics.Error, "boom") || jr.stack == nil {
				t.Fatalf("panicking job answered %+v (stack %d bytes), want 500 naming the panic",
					jr.metrics, len(jr.stack))
			}
			continue
		}
		if jr.metrics.Status != statusOK || jr.stack != nil {
			t.Fatalf("job %d answered %+v after a neighbour panicked", i, jr.metrics)
		}
	}
	if got := d.Queued(); got != 0 {
		t.Fatalf("Queued() = %d after every job was answered, want 0", got)
	}
	drained := make(chan struct{})
	go func() { d.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after a panic")
	}
}

// TestDispatcherDrainAnswersEveryAcceptedJob is the graceful-shutdown
// contract: once a job is accepted its run is guaranteed, and Drain
// returns only after it, even when Drain races with submission.
func TestDispatcherDrainAnswersEveryAcceptedJob(t *testing.T) {
	var ran atomic.Int64
	d := newDispatcher(1024, 2, func(j *job) jobResult {
		time.Sleep(200 * time.Microsecond) // make drain race mid-run
		ran.Add(1)
		return okRun(j)
	})

	var admitted, answered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := d.Do(testJob(uint64(g*100+i)), func() { admitted.Add(1) }); err == nil {
					answered.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(time.Millisecond) // let some submissions land first
	d.Drain()
	if got, want := ran.Load(), admitted.Load(); got != want {
		t.Fatalf("drain returned early: %d jobs ran, %d were accepted", got, want)
	}
	wg.Wait()

	if got, want := answered.Load(), admitted.Load(); got != want {
		t.Fatalf("drain lost work: %d jobs answered, %d were accepted", got, want)
	}
	if admitted.Load() == 0 {
		t.Fatal("no job was accepted before the drain; race never exercised")
	}
	// Post-drain submissions are refused.
	if _, err := d.Do(testJob(999), nil); err != ErrDraining {
		t.Fatalf("post-drain job: got %v, want ErrDraining", err)
	}
}

// expiringRun answers like runJob: a job whose context has ended by the
// time it gets a slot is answered with a timeout instead of being run.
func expiringRun(j *job) jobResult {
	if j.ctx.Err() != nil {
		return timedOut(j)
	}
	return okRun(j)
}

// TestDispatcherWaiterLeavesAtDeadline: a queued job whose context ends
// is answered with a timeout while the slot is still held, never runs,
// and gives up its place without taking the slot — the job behind it
// runs next.
func TestDispatcherWaiterLeavesAtDeadline(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var ran [3]atomic.Int64
	d := newDispatcher(16, 1, func(j *job) jobResult {
		ran[j.m.ID].Add(1)
		if j.m.ID == 0 {
			close(held)
			<-release
		}
		return expiringRun(j)
	})
	defer d.Drain()

	first := submit(d, testJob(0), nil)
	<-held
	ctx, cancel := context.WithCancel(context.Background())
	leaving := testJob(1)
	leaving.ctx = ctx
	second := submit(d, leaving, nil)
	waitQueued(t, d, 2)
	third := submit(d, testJob(2), nil)
	waitQueued(t, d, 3)

	cancel()
	if jr := answered(t, second); jr.metrics.Status != statusTimeout {
		t.Fatalf("cancelled waiter answered %+v, want %d", jr.metrics, statusTimeout)
	}
	waitQueued(t, d, 2) // the held job and the one behind the leaver
	close(release)
	answered(t, first)
	if jr := answered(t, third); jr.metrics.Status != statusOK {
		t.Fatalf("job behind the leaver answered %+v", jr.metrics)
	}
	if n := ran[1].Load(); n != 0 {
		t.Fatalf("cancelled waiter ran %d times, want 0", n)
	}
	if got := d.Queued(); got != 0 {
		t.Fatalf("Queued() = %d after every job was answered, want 0", got)
	}
}

// TestDispatcherCancelRacesRelease cancels waiters while finishing jobs
// hand their slots on (run it with -race): every accepted job is
// answered exactly once and run at most once, no more than workers jobs
// ever run at once, and the queue empties.
func TestDispatcherCancelRacesRelease(t *testing.T) {
	const workers, jobs = 2, 200
	var active, peak atomic.Int64
	var runs [jobs]atomic.Int64
	d := newDispatcher(jobs, workers, func(j *job) jobResult {
		runs[j.m.ID].Add(1)
		n := active.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Microsecond)
		active.Add(-1)
		return expiringRun(j)
	})

	var answers [jobs]atomic.Int64
	var admitted, timedOutN atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		j := testJob(uint64(i))
		j.ctx = ctx
		wg.Add(2)
		go func() {
			defer wg.Done()
			jr, err := d.Do(j, func() { admitted.Add(1) })
			if err != nil {
				t.Errorf("job %d refused: %v", j.m.ID, err)
				return
			}
			answers[jr.metrics.ID].Add(1)
			if jr.metrics.Status == statusTimeout {
				timedOutN.Add(1)
			}
		}()
		go func(i int) {
			defer wg.Done()
			if i%3 != 0 {
				// Cancel two jobs in three at staggered moments, some
				// while queued, some as their turn arrives.
				time.Sleep(time.Duration(i%7) * 50 * time.Microsecond)
				cancel()
			}
		}(i)
		defer cancel()
	}
	wg.Wait()

	if got := admitted.Load(); got != jobs {
		t.Fatalf("%d jobs admitted, want %d", got, jobs)
	}
	for i := range answers {
		if n := answers[i].Load(); n != 1 {
			t.Errorf("job %d answered %d times, want 1", i, n)
		}
		if n := runs[i].Load(); n > 1 {
			t.Errorf("job %d ran %d times", i, n)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d jobs ran at once, want at most %d", p, workers)
	}
	if timedOutN.Load() == 0 {
		t.Fatal("no job was cancelled while queued; race never exercised")
	}
	if got := d.Queued(); got != 0 {
		t.Fatalf("Queued() = %d after every job was answered, want 0", got)
	}
	// The slots were all handed back: a new job runs at once.
	if jr := answered(t, submit(d, testJob(0), nil)); jr.metrics.Status != statusOK {
		t.Fatalf("job after the storm answered %+v", jr.metrics)
	}
	d.Drain()
}
