// Package jobs is a bounded in-memory job queue with a fixed worker pool —
// the asynchronous, backpressured execution plane behind TMPLAR's
// /api/jobs endpoints. A planning (or background training) request is
// submitted as a job, answered immediately with a job ID, executed by a
// worker under its own deadline, and observed by polling or by an SSE
// status stream.
//
// Lifecycle:
//
//	queued ──► running ──► done
//	   │          │    └──► failed
//	   └──────────┴───────► canceled
//
// Backpressure is explicit: Submit fails with ErrQueueFull when the
// bounded queue is at capacity (the HTTP layer answers 429 with
// Retry-After) and with ErrDraining once shutdown has begun. Idempotency
// keys make retries safe: a duplicate Submit returns the original job
// while it is in flight or done; a key whose prior job failed or was
// canceled resubmits, so clients can retry errors with the same key.
//
// Dequeue is round-robin across lanes (Request.Namespace, chosen by the
// caller): one job per lane per turn, walking the per-lane FIFOs, so one
// tenant flooding the queue delays its own backlog, not everyone else's.
// Watchers are notified, not fed: every transition closes the job's change
// channel, and a watcher re-reads the current view, so it always ends on
// the terminal state. Terminal job records are retained for a
// bounded time and count (Options.Retention / Options.MaxTerminal) and then
// evicted — a long-running server's memory is bounded by its retention
// window, not its submission history.
//
// The queue exports jobs_queued/jobs_inflight gauges, per-state counters,
// fairness and eviction counters, and queue-wait/execution histograms into
// an obs registry, and every job execution carries a trace span under the
// submitting request's trace ID.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/trace"
)

// State is a job's lifecycle state.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Func is a job body. It must honor ctx: cancellation and the per-job
// deadline arrive through it.
type Func func(ctx context.Context) (any, error)

// Submission errors.
var (
	// ErrQueueFull reports that the bounded queue is at capacity; retry
	// after the duration suggested by Queue.RetryAfter.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining reports that the queue is shutting down and rejects new
	// work.
	ErrDraining = errors.New("jobs: queue draining")
)

// Defaults for Options zero values.
const (
	DefaultWorkers    = 4
	DefaultQueueDepth = 64
	// DefaultRetention is how long terminal job records stay queryable.
	DefaultRetention = 15 * time.Minute
	// DefaultMaxTerminal caps retained terminal records regardless of age.
	DefaultMaxTerminal = 10000
)

// Options configures a Queue.
type Options struct {
	// Workers is the worker-pool size; <= 0 selects DefaultWorkers.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// <= 0 selects DefaultQueueDepth.
	QueueDepth int
	// DefaultTimeout bounds each job's execution when the submission does
	// not carry its own deadline. 0 means no default deadline.
	DefaultTimeout time.Duration
	// Retention is how long a terminal job (and its idempotency-key entry)
	// stays queryable after finishing. 0 selects DefaultRetention; < 0
	// disables time-based eviction entirely.
	Retention time.Duration
	// MaxTerminal caps retained terminal records, evicting oldest-finished
	// first. 0 selects DefaultMaxTerminal; < 0 removes the cap.
	MaxTerminal int
	// Now replaces the clock (tests drive a fake one).
	Now func() time.Time
	// Metrics receives the queue's gauges, counters and histograms.
	// nil gets a private registry.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one "job.exec" span per execution,
	// under the submitting request's trace ID when one was carried.
	Tracer *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	switch {
	case o.Retention == 0:
		o.Retention = DefaultRetention
	case o.Retention < 0:
		o.Retention = 0 // normalized: 0 means "no TTL" internally
	}
	switch {
	case o.MaxTerminal == 0:
		o.MaxTerminal = DefaultMaxTerminal
	case o.MaxTerminal < 0:
		o.MaxTerminal = 0 // normalized: 0 means "no cap" internally
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Metrics == nil {
		o.Metrics = obs.New()
	}
	return o
}

// nsLabel renders a namespace as a metric label value.
func nsLabel(ns string) string {
	if ns == "" {
		return "default"
	}
	return ns
}

// Request is one job submission.
type Request struct {
	// Kind labels the job type ("plan", "train") for metrics and views.
	Kind string
	// IdempotencyKey, when non-empty, deduplicates submissions: a second
	// Submit with the same key returns the original job unless that job
	// failed or was canceled, in which case the retry resubmits.
	IdempotencyKey string
	// Namespace is the fairness lane; empty is the shared default lane.
	Namespace string
	// Timeout bounds this job's execution; 0 falls back to the queue's
	// DefaultTimeout.
	Timeout time.Duration
	// TraceID, when non-zero, parents the job's execution span so the
	// submitting request's X-Trace-Id covers the asynchronous work.
	TraceID trace.TraceID
	// Fn is the job body.
	Fn Func
}

// View is an immutable snapshot of a job, safe to serialize.
type View struct {
	ID             string     `json:"id"`
	Kind           string     `json:"kind"`
	State          State      `json:"state"`
	IdempotencyKey string     `json:"idempotency_key,omitempty"`
	CreatedAt      time.Time  `json:"created_at"`
	StartedAt      *time.Time `json:"started_at,omitempty"`
	FinishedAt     *time.Time `json:"finished_at,omitempty"`
	// QueueWaitSeconds and ExecSeconds settle when the matching phase ends.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	ExecSeconds      float64 `json:"exec_seconds,omitempty"`
	Error            string  `json:"error,omitempty"`
	Result           any     `json:"result,omitempty"`
	TraceID          string  `json:"trace_id,omitempty"`
	// Err is the typed failure behind Error (nil unless failed), read under
	// the same lock as State so the HTTP layer can errors.As it — e.g. to
	// answer 429 for a job that failed on budget exhaustion.
	Err error `json:"-"`
}

// job is the mutable record; all fields are guarded by Queue.mu.
type job struct {
	id       string
	kind     string
	key      string
	ns       string
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	timeout  time.Duration
	traceID  trace.TraceID
	fn       Func
	result   any
	errMsg   string
	err      error // the typed failure errMsg renders
	// cancelRequested distinguishes an explicit DELETE from a deadline
	// expiry; cancel aborts a running job's context.
	cancelRequested bool
	cancel          context.CancelFunc
	// changed is closed on every transition and replaced, except on the
	// terminal one: it then stays closed.
	changed chan struct{}
}

func (j *job) view() View {
	v := View{
		ID:             j.id,
		Kind:           j.kind,
		State:          j.state,
		IdempotencyKey: j.key,
		CreatedAt:      j.created,
		Error:          j.errMsg,
		Result:         j.result,
		Err:            j.err,
	}
	if j.traceID != 0 {
		v.TraceID = j.traceID.String()
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
		v.QueueWaitSeconds = j.started.Sub(j.created).Seconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
		if !j.started.IsZero() {
			v.ExecSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	return v
}

// Queue is the bounded job queue. Create with New; stop with Drain or
// Close.
type Queue struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	byKey    map[string]string
	seq      uint64
	draining bool
	active   int     // jobs in a non-terminal state
	execEWMA float64 // smoothed execution seconds, feeds RetryAfter

	// Round-robin dequeue state: one FIFO per namespace, walked in nsOrder.
	nsQueues map[string][]*job
	nsOrder  []string
	nsIdx    int
	queued   int // jobs occupying queue capacity (settled at dequeue)

	// terminal holds finished jobs in finish order — the eviction FIFO.
	terminal []*job

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
}

// New builds a queue and starts its worker pool immediately.
func New(opts Options) *Queue {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		opts:       opts,
		jobs:       make(map[string]*job),
		byKey:      make(map[string]string),
		nsQueues:   make(map[string][]*job),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	q.cond = sync.NewCond(&q.mu)
	registerHelp(opts.Metrics)
	q.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go q.worker()
	}
	return q
}

func registerHelp(m *obs.Registry) {
	for name, help := range map[string]string{
		"jobs_queued":              "Jobs accepted but not yet running.",
		"jobs_inflight":            "Jobs currently executing.",
		"jobs_state_total":         "Jobs that reached a terminal state, by state.",
		"jobs_submitted_total":     "Job submissions accepted, by kind.",
		"jobs_rejected_total":      "Job submissions rejected, by reason (full, draining).",
		"jobs_resubmitted_total":   "Idempotency-key retries that resubmitted after a failed or canceled prior job.",
		"jobs_queue_wait_seconds":  "Time from submission to execution start.",
		"jobs_exec_seconds":        "Job execution latency.",
		"jobs_fair_namespaces":     "Namespaces currently holding queued jobs.",
		"jobs_fair_dequeues_total": "Jobs dequeued, by namespace.",
		"jobs_evicted_total":       "Terminal job records evicted by retention or the record cap.",
	} {
		m.SetHelp(name, help)
	}
}

// Workers returns the worker-pool size.
func (q *Queue) Workers() int { return q.opts.Workers }

// Metrics returns the queue's metrics registry.
func (q *Queue) Metrics() *obs.Registry { return q.opts.Metrics }

// Len returns the number of job records currently retained (queued,
// running, and not-yet-evicted terminal jobs).
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// Submit enqueues a job. It fails fast with ErrQueueFull when the bounded
// queue is at capacity and ErrDraining during shutdown. A duplicate
// idempotency key returns the original job's view with no error — unless
// that job failed or was canceled, in which case the retry takes over the
// key and resubmits.
func (q *Queue) Submit(req Request) (View, error) {
	if req.Fn == nil {
		return View{}, errors.New("jobs: submit with nil Fn")
	}
	if req.Kind == "" {
		req.Kind = "job"
	}
	q.mu.Lock()
	q.evictLocked()
	if q.draining {
		q.mu.Unlock()
		q.opts.Metrics.Counter("jobs_rejected_total", "reason", "draining").Inc()
		return View{}, ErrDraining
	}
	if req.IdempotencyKey != "" {
		if id, ok := q.byKey[req.IdempotencyKey]; ok {
			prior := q.jobs[id]
			if prior != nil && prior.state != StateFailed && prior.state != StateCanceled {
				v := prior.view()
				q.mu.Unlock()
				return v, nil
			}
			// The prior attempt settled unsuccessfully (or its record is
			// gone): this retry is new work, and it takes over the key.
			q.opts.Metrics.Counter("jobs_resubmitted_total").Inc()
		}
	}
	if q.queued >= q.opts.QueueDepth {
		q.mu.Unlock()
		q.opts.Metrics.Counter("jobs_rejected_total", "reason", "full").Inc()
		return View{}, ErrQueueFull
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = q.opts.DefaultTimeout
	}
	q.seq++
	j := &job{
		id:      fmt.Sprintf("j-%08d", q.seq),
		kind:    req.Kind,
		key:     req.IdempotencyKey,
		ns:      req.Namespace,
		state:   StateQueued,
		created: q.opts.Now(),
		timeout: timeout,
		traceID: req.TraceID,
		fn:      req.Fn,
		changed: make(chan struct{}),
	}
	q.enqueueLocked(j)
	q.jobs[j.id] = j
	if j.key != "" {
		q.byKey[j.key] = j.id
	}
	q.active++
	q.opts.Metrics.Gauge("jobs_queued").Inc()
	q.opts.Metrics.Counter("jobs_submitted_total", "kind", j.kind).Inc()
	v := j.view()
	q.cond.Broadcast()
	q.mu.Unlock()
	return v, nil
}

// enqueueLocked appends j to its namespace FIFO, registering the namespace
// in the round-robin order if it is new. Callers hold q.mu.
func (q *Queue) enqueueLocked(j *job) {
	if _, ok := q.nsQueues[j.ns]; !ok {
		q.nsOrder = append(q.nsOrder, j.ns)
		q.opts.Metrics.Gauge("jobs_fair_namespaces").Set(float64(len(q.nsOrder)))
	}
	q.nsQueues[j.ns] = append(q.nsQueues[j.ns], j)
	q.queued++
}

// dequeueLocked pops the next job round-robin: one job from the current
// namespace, then the turn passes to the next. Jobs settled while queued
// (canceled) are dropped lazily here, releasing their queue-capacity slot.
// Returns nil when nothing is queued. Callers hold q.mu.
func (q *Queue) dequeueLocked() *job {
	for q.queued > 0 {
		if q.nsIdx >= len(q.nsOrder) {
			q.nsIdx = 0
		}
		ns := q.nsOrder[q.nsIdx]
		fifo := q.nsQueues[ns]
		for len(fifo) > 0 && fifo[0].state != StateQueued {
			fifo = fifo[1:]
			q.queued--
		}
		q.nsQueues[ns] = fifo
		if len(fifo) == 0 {
			// Namespace drained: retire it from the rotation (it re-registers
			// on its next submission).
			delete(q.nsQueues, ns)
			q.nsOrder = append(q.nsOrder[:q.nsIdx], q.nsOrder[q.nsIdx+1:]...)
			q.opts.Metrics.Gauge("jobs_fair_namespaces").Set(float64(len(q.nsOrder)))
			continue
		}
		j := fifo[0]
		q.nsQueues[ns] = fifo[1:]
		q.queued--
		q.nsIdx++
		q.opts.Metrics.Counter("jobs_fair_dequeues_total", "namespace", nsLabel(ns)).Inc()
		return j
	}
	return nil
}

// settleLocked records a terminal transition for eviction accounting.
// Callers hold q.mu and have already set the job's terminal state.
func (q *Queue) settleLocked(j *job) {
	q.terminal = append(q.terminal, j)
	q.evictLocked()
}

// evictLocked removes terminal records that aged past the retention window
// or overflow the record cap, oldest-finished first, releasing the job map
// entry and (when still owned) the idempotency-key entry. Callers hold
// q.mu.
func (q *Queue) evictLocked() {
	now := q.opts.Now()
	evicted := 0
	for len(q.terminal) > 0 {
		j := q.terminal[0]
		overCap := q.opts.MaxTerminal > 0 && len(q.terminal) > q.opts.MaxTerminal
		expired := q.opts.Retention > 0 && now.Sub(j.finished) >= q.opts.Retention
		if !overCap && !expired {
			break
		}
		q.terminal = q.terminal[1:]
		delete(q.jobs, j.id)
		if j.key != "" && q.byKey[j.key] == j.id {
			delete(q.byKey, j.key)
		}
		evicted++
	}
	if evicted > 0 {
		q.opts.Metrics.Counter("jobs_evicted_total").Add(uint64(evicted))
	}
}

// Get returns a job's current view, its typed failure included. Evicted
// (or never-submitted) IDs report false.
func (q *Queue) Get(id string) (View, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.evictLocked()
	j, ok := q.jobs[id]
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// Cancel requests cancellation of a job: a queued job is canceled
// immediately (it will never run), a running job has its context canceled
// and settles to canceled when its Func returns, and a terminal job is
// left untouched. The returned view reflects the post-cancel state.
func (q *Queue) Cancel(id string) (View, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return View{}, false
	}
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.cancelRequested = true
		j.finished = q.opts.Now()
		j.errMsg = "canceled before execution"
		q.active--
		q.opts.Metrics.Gauge("jobs_queued").Dec()
		q.opts.Metrics.Counter("jobs_state_total", "state", string(StateCanceled)).Inc()
		q.notifyLocked(j)
		q.settleLocked(j)
		q.cond.Broadcast()
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.view(), true
}

// Watch returns a job's current view and a channel that closes at its next
// transition. A watcher loops: read the view, stop if it is terminal, else
// wait on the channel and Watch again. Nothing is ever dropped or blocks a
// worker, and the loop always ends on the terminal view; a slow watcher
// may see intermediate states coalesced. A terminal job's channel is
// already closed.
func (q *Queue) Watch(id string) (View, <-chan struct{}, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return View{}, nil, false
	}
	return j.view(), j.changed, true
}

// notifyLocked wakes a job's watchers: it closes the change channel and,
// unless the job is terminal, arms a fresh one. Callers hold q.mu.
func (q *Queue) notifyLocked(j *job) {
	close(j.changed)
	if !j.state.Terminal() {
		j.changed = make(chan struct{})
	}
}

// RetryAfter suggests a client backoff for a full queue: the estimated
// time for the pool to absorb the current backlog, at least one second.
func (q *Queue) RetryAfter() time.Duration {
	q.mu.Lock()
	avg := q.execEWMA
	backlog := q.queued
	q.mu.Unlock()
	if avg <= 0 {
		avg = 1
	}
	secs := avg * float64(backlog+1) / float64(q.opts.Workers)
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs * float64(time.Second))
}

// Drain stops accepting new jobs, lets queued and running jobs finish, and
// returns when the queue is idle. If ctx expires first, the remaining jobs
// are canceled and ctx.Err is returned after they settle.
func (q *Queue) Drain(ctx context.Context) error {
	q.beginDrain()
	idle := make(chan struct{})
	go func() {
		q.mu.Lock()
		for q.active > 0 {
			q.cond.Wait()
		}
		q.mu.Unlock()
		close(idle)
	}()
	select {
	case <-idle:
		q.wg.Wait()
		return nil
	case <-ctx.Done():
		q.rootCancel() // abort running jobs; workers settle them promptly
		<-idle
		q.wg.Wait()
		return ctx.Err()
	}
}

// Close drains with immediate cancellation: running jobs are aborted.
func (q *Queue) Close() {
	q.beginDrain()
	q.rootCancel()
	q.mu.Lock()
	for q.active > 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
	q.wg.Wait()
}

// beginDrain flips the queue into draining mode exactly once and wakes the
// workers so they exit after emptying the backlog.
func (q *Queue) beginDrain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return
	}
	q.draining = true
	q.cond.Broadcast()
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		var j *job
		for {
			if j = q.dequeueLocked(); j != nil || q.draining {
				break
			}
			q.cond.Wait()
		}
		q.mu.Unlock()
		if j == nil {
			return
		}
		q.run(j)
	}
}

// run executes one dequeued job through its full lifecycle.
func (q *Queue) run(j *job) {
	q.mu.Lock()
	if j.state != StateQueued { // canceled while queued; already settled
		q.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = q.opts.Now()
	ctx := q.rootCtx
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.cancel = cancel
	m := q.opts.Metrics
	m.Gauge("jobs_queued").Dec()
	m.Gauge("jobs_inflight").Inc()
	m.Histogram("jobs_queue_wait_seconds", obs.DefaultLatencyBuckets).
		Observe(j.started.Sub(j.created).Seconds())
	q.notifyLocked(j)
	q.mu.Unlock()

	var sp *trace.Span
	if q.opts.Tracer.Enabled() {
		attrs := []trace.Attr{
			trace.String("job", j.id), trace.String("kind", j.kind),
		}
		if j.traceID != 0 {
			sp = q.opts.Tracer.StartTrace(j.traceID, "job.exec", attrs...)
		} else {
			sp = q.opts.Tracer.Start("job.exec", attrs...)
		}
		ctx = trace.ContextWithSpan(ctx, sp)
	}

	result, err := runSafely(ctx, j.fn)
	cancel()

	q.mu.Lock()
	j.cancel = nil
	j.finished = q.opts.Now()
	exec := j.finished.Sub(j.started).Seconds()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
	case j.cancelRequested && errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = "canceled while running"
	case errors.Is(err, context.Canceled) && q.rootCtx.Err() != nil:
		j.state = StateCanceled
		j.errMsg = "canceled by queue shutdown"
	default:
		j.state = StateFailed
		j.err = err
		j.errMsg = err.Error()
	}
	m.Gauge("jobs_inflight").Dec()
	m.Counter("jobs_state_total", "state", string(j.state)).Inc()
	m.Histogram("jobs_exec_seconds", obs.DefaultLatencyBuckets).Observe(exec)
	// EWMA with a 0.3 step: responsive to load shifts, stable per sample.
	if q.execEWMA == 0 {
		q.execEWMA = exec
	} else {
		q.execEWMA += 0.3 * (exec - q.execEWMA)
	}
	q.active--
	state := j.state
	q.notifyLocked(j)
	q.settleLocked(j)
	q.cond.Broadcast()
	q.mu.Unlock()

	if sp != nil {
		sp.SetAttrs(trace.String("state", string(state)))
		if err != nil {
			sp.SetAttrs(trace.String("error", err.Error()))
		}
		sp.End()
	}
}

// runSafely invokes fn, converting a panic into an error so one bad job
// cannot take down a worker.
func runSafely(ctx context.Context, fn Func) (result any, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("jobs: job panicked: %v", v)
		}
	}()
	return fn(ctx)
}
