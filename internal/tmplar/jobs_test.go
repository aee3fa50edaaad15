package tmplar

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/jobs"
)

// jobServer is a derivedServer with its own async job queue attached, so
// job-plane tests neither retrain the model nor share queue state.
func jobServer(t testing.TB, workers, depth int) *Server {
	t.Helper()
	s := derivedServer(t, Options{})
	s.jobs = jobs.New(jobs.Options{Workers: workers, QueueDepth: depth,
		DefaultTimeout: s.opts.JobTimeout, Metrics: s.opts.Metrics})
	t.Cleanup(s.Close)
	return s
}

// pollJob polls GET /api/jobs/{id} until the job settles.
func pollJob(t *testing.T, h http.Handler, id string) jobs.View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec := do(t, h, "GET", "/api/jobs/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s: %d %s", id, rec.Code, rec.Body.String())
		}
		var v jobs.View
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return jobs.View{}
}

func TestJobSubmitPollDone(t *testing.T) {
	s := jobServer(t, 2, 16)
	h := s.Handler()

	rec := do(t, h, "POST", "/api/jobs/plan", opsPlanRequest())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var v jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.ID == "" || v.Kind != "plan" {
		t.Fatalf("bad accepted view: %+v", v)
	}
	if loc := rec.Header().Get("Location"); loc != "/api/jobs/"+v.ID {
		t.Fatalf("Location = %q", loc)
	}

	final := pollJob(t, h, v.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job settled %s: %+v", final.State, final)
	}
	// The result is the same PlanResponse /api/plan would have returned.
	rb, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	var pr PlanResponse
	if err := json.Unmarshal(rb, &pr); err != nil {
		t.Fatalf("job result is not a PlanResponse: %v (%s)", err, rb)
	}
	if len(pr.Routes) == 0 {
		t.Fatalf("plan result has no routes: %s", rb)
	}
}

func TestJobSubmitValidatesSynchronously(t *testing.T) {
	s := jobServer(t, 1, 4)
	h := s.Handler()

	bad := opsPlanRequest()
	bad.Grid = "no-such-grid"
	if rec := do(t, h, "POST", "/api/jobs/plan", bad); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown grid: %d", rec.Code)
	}
	empty := opsPlanRequest()
	empty.Assets = nil
	if rec := do(t, h, "POST", "/api/jobs/plan", empty); rec.Code != http.StatusBadRequest {
		t.Fatalf("no assets: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/api/jobs/plan", "{broken"); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/api/jobs/j-99999999", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", rec.Code)
	}
}

func TestJobCancelOverHTTP(t *testing.T) {
	s := jobServer(t, 1, 8)
	h := s.Handler()

	// Occupy the only worker so the HTTP-submitted job stays queued.
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	if _, err := s.jobs.Submit(jobs.Request{Fn: func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started

	rec := do(t, h, "POST", "/api/jobs/plan", opsPlanRequest())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var v jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}

	rec = do(t, h, "DELETE", "/api/jobs/"+v.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body.String())
	}
	var cv jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &cv); err != nil {
		t.Fatal(err)
	}
	if cv.State != jobs.StateCanceled {
		t.Fatalf("canceled job in state %s", cv.State)
	}
}

func TestJobQueueFullReturns429(t *testing.T) {
	s := jobServer(t, 1, 1)
	h := s.Handler()

	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	blocker := func(ctx context.Context) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// One job on the worker, one filling the depth-1 queue.
	if _, err := s.jobs.Submit(jobs.Request{Fn: blocker}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.jobs.Submit(jobs.Request{Fn: blocker}); err != nil {
		t.Fatal(err)
	}

	rec := do(t, h, "POST", "/api/jobs/plan", opsPlanRequest())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d %s", rec.Code, rec.Body.String())
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want >= 1 seconds", rec.Header().Get("Retry-After"))
	}
}

func TestJobIdempotencyKeyOverHTTP(t *testing.T) {
	s := jobServer(t, 2, 16)
	h := s.Handler()

	body := JobPlanRequest{PlanRequest: opsPlanRequest(), IdempotencyKey: "mission-42"}
	rec := do(t, h, "POST", "/api/jobs/plan", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var first jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}

	rec = do(t, h, "POST", "/api/jobs/plan", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("duplicate submit: %d %s", rec.Code, rec.Body.String())
	}
	var second jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("duplicate key created a new job: %s vs %s", second.ID, first.ID)
	}
}

func TestJobEventsSSE(t *testing.T) {
	s := jobServer(t, 1, 8)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/jobs/plan", "application/json",
		strings.NewReader(mustJSON(t, opsPlanRequest())))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var v jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(ts.URL + "/api/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}

	// The stream replays the current state and then every transition; it
	// closes after the terminal frame.
	var states []jobs.State
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev jobs.View
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("decode SSE frame: %v (%s)", err, line)
		}
		states = append(states, ev.State)
	}
	if len(states) == 0 {
		t.Fatal("no SSE frames received")
	}
	if last := states[len(states)-1]; last != jobs.StateDone {
		t.Fatalf("stream ended on %s (saw %v), want done", last, states)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestJobsUnavailableWithoutQueue(t *testing.T) {
	s := derivedServer(t, Options{}) // no queue attached
	rec := do(t, s.Handler(), "POST", "/api/jobs/plan", opsPlanRequest())
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queue-less server: %d", rec.Code)
	}
}
