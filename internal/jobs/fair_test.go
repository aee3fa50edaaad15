package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for Options.Now: workers read
// it concurrently with the test advancing it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestRoundRobinLanes floods one lane while a lighter tenant submits two
// jobs, on a single worker so the execution order is the dequeue order.
// The round-robin must interleave the tenants — the light tenant's whole
// batch completes within the first four post-flood executions (2x its
// isolated latency of two executions) instead of queueing behind all nine
// heavy jobs.
func TestRoundRobinLanes(t *testing.T) {
	q := New(Options{Workers: 1, QueueDepth: 32})
	defer q.Close()

	var mu sync.Mutex
	var order []string
	exec := func(name string) Func {
		return func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		}
	}

	// Occupy the worker so every following submission queues up behind it.
	gate := make(chan struct{})
	gv, err := q.Submit(Request{Namespace: "gate", Fn: func(ctx context.Context) (any, error) {
		<-gate
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}

	var last View
	for i := 1; i <= 9; i++ {
		v, err := q.Submit(Request{IdempotencyKey: fmt.Sprintf("heavy/%d", i), Namespace: "heavy", Fn: exec(fmt.Sprintf("heavy/%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		last = v
	}
	for i := 1; i <= 2; i++ {
		if _, err := q.Submit(Request{IdempotencyKey: fmt.Sprintf("light/%d", i), Namespace: "light", Fn: exec(fmt.Sprintf("light/%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	waitTerminal(t, q, gv.ID)
	waitTerminal(t, q, last.ID)
	for i := 1; i <= 2; i++ {
		id, ok := q.byKeyID(fmt.Sprintf("light/%d", i))
		if !ok {
			t.Fatalf("light/%d record missing", i)
		}
		waitTerminal(t, q, id)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 11 {
		t.Fatalf("executed %d jobs, want 11: %v", len(order), order)
	}
	light, heavy := 0, 0
	for _, name := range order[:4] {
		if strings.HasPrefix(name, "light/") {
			light++
		} else {
			heavy++
		}
	}
	// One job per lane per turn: both light jobs land in the first two
	// rounds, interleaved with exactly two heavy ones.
	if light != 2 || heavy != 2 {
		t.Fatalf("first four executions %v: want both light jobs among them", order[:4])
	}
	m := q.Metrics()
	if got := m.CounterValue("jobs_fair_dequeues_total", "namespace", "light"); got != 2 {
		t.Fatalf("jobs_fair_dequeues_total{light} = %v, want 2", got)
	}
}

// byKeyID resolves an idempotency key to its current job ID (test helper).
func (q *Queue) byKeyID(key string) (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	id, ok := q.byKey[key]
	return id, ok
}

// TestRetentionEvictsTerminalRecords drives the TTL with a fake clock: a
// finished job stays queryable inside the retention window and is gone —
// map entry and idempotency key both — once it ages out.
func TestRetentionEvictsTerminalRecords(t *testing.T) {
	clk := newFakeClock()
	q := New(Options{Workers: 1, Retention: 10 * time.Minute, Now: clk.Now})
	defer q.Close()

	v, err := q.Submit(Request{IdempotencyKey: "t/1", Fn: func(ctx context.Context) (any, error) {
		return "done", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, v.ID)

	clk.Advance(9 * time.Minute)
	if _, ok := q.Get(v.ID); !ok {
		t.Fatal("job evicted inside the retention window")
	}
	clk.Advance(2 * time.Minute)
	if _, ok := q.Get(v.ID); ok {
		t.Fatal("job still queryable past the retention window")
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after eviction, want 0", q.Len())
	}
	if _, ok := q.byKeyID("t/1"); ok {
		t.Fatal("idempotency key survived eviction")
	}
	if got := q.Metrics().CounterValue("jobs_evicted_total"); got != 1 {
		t.Fatalf("jobs_evicted_total = %v, want 1", got)
	}
}

// TestMaxTerminalCapBoundsRecords proves the record-count bound: with a
// cap of 3, six finished jobs leave exactly the newest three queryable.
func TestMaxTerminalCapBoundsRecords(t *testing.T) {
	q := New(Options{Workers: 1, MaxTerminal: 3, Retention: -1})
	defer q.Close()

	ids := make([]string, 6)
	for i := range ids {
		v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) { return i, nil }})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, q, v.ID)
		ids[i] = v.ID
	}
	// Eviction is lazy (it runs on Submit/Get/settle); Get both asserts
	// visibility and triggers it.
	for i, id := range ids {
		_, ok := q.Get(id)
		if want := i >= 3; ok != want {
			t.Fatalf("job %d queryable=%v, want %v", i, ok, want)
		}
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("Len() = %d with cap 3, want 3", got)
	}
}

// TestFailedKeyResubmits pins the retry contract: an idempotency key whose
// prior job failed (or was canceled) accepts new work instead of replaying
// the failure forever.
func TestFailedKeyResubmits(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()

	v1, err := q.Submit(Request{IdempotencyKey: "t/retry", Fn: func(ctx context.Context) (any, error) {
		return nil, errors.New("transient")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, q, v1.ID); final.State != StateFailed {
		t.Fatalf("first attempt settled %s, want failed", final.State)
	}

	v2, err := q.Submit(Request{IdempotencyKey: "t/retry", Fn: func(ctx context.Context) (any, error) {
		return "recovered", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID == v1.ID {
		t.Fatal("retry of a failed key returned the failed job instead of resubmitting")
	}
	if final := waitTerminal(t, q, v2.ID); final.State != StateDone || final.Result != "recovered" {
		t.Fatalf("retry settled %+v, want done/recovered", final)
	}
	// The key now points at the successful job; a third submit deduplicates.
	v3, err := q.Submit(Request{IdempotencyKey: "t/retry", Fn: func(ctx context.Context) (any, error) {
		t.Error("deduplicated submit must not run")
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v3.ID != v2.ID {
		t.Fatalf("dedup after success returned %s, want %s", v3.ID, v2.ID)
	}
	if got := q.Metrics().CounterValue("jobs_resubmitted_total"); got != 1 {
		t.Fatalf("jobs_resubmitted_total = %v, want 1", got)
	}
}

// TestCanceledKeyResubmits is the cancel flavor of the retry contract.
func TestCanceledKeyResubmits(t *testing.T) {
	q := New(Options{Workers: 1, QueueDepth: 8})
	defer q.Close()

	block := make(chan struct{})
	defer close(block)
	if _, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	v1, err := q.Submit(Request{IdempotencyKey: "t/c", Fn: func(ctx context.Context) (any, error) {
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if cv, ok := q.Cancel(v1.ID); !ok || cv.State != StateCanceled {
		t.Fatalf("cancel: ok=%v view=%+v", ok, cv)
	}
	v2, err := q.Submit(Request{IdempotencyKey: "t/c", Fn: func(ctx context.Context) (any, error) {
		return "second", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID == v1.ID {
		t.Fatal("retry of a canceled key returned the canceled job")
	}
}

// TestErrReturnsTypedFailure pins View.Err: the typed error survives for
// errors.As at the HTTP layer, stays out of the JSON view, and non-failed
// jobs report nil.
func TestErrReturnsTypedFailure(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()

	sentinel := errors.New("typed failure")
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		return nil, fmt.Errorf("wrapped: %w", sentinel)
	}})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitTerminal(t, q, v.ID)
	if !errors.Is(failed.Err, sentinel) {
		t.Fatalf("View.Err of %s = %v, want wrapped sentinel", v.ID, failed.Err)
	}
	if b, err := json.Marshal(failed); err != nil || strings.Contains(string(b), `"Err"`) {
		t.Fatalf("view JSON %s (err %v) must not carry Err", b, err)
	}
	ok, err2 := q.Submit(Request{Fn: func(ctx context.Context) (any, error) { return nil, nil }})
	if err2 != nil {
		t.Fatal(err2)
	}
	if done := waitTerminal(t, q, ok.ID); done.Err != nil {
		t.Fatalf("View.Err of a done job = %v, want nil", done.Err)
	}
}
