package tmplar

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/jobs"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/trace"
)

// Async planning API: submit a plan as a job, poll or stream its status,
// cancel it. The job plane decouples slow missions from HTTP connections —
// a 30-second plan no longer occupies a connection, and the bounded queue
// gives the service real backpressure (429 + Retry-After) instead of
// unbounded goroutine pileup.

// JobPlanRequest is the POST /api/jobs/plan body: a plan request plus an
// optional idempotency key (the Idempotency-Key header is honored when the
// field is empty).
type JobPlanRequest struct {
	PlanRequest
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// jobLane picks a job's fairness lane: the idempotency key's tenant prefix
// (before the first '/') when it has one, else the job's grid, so one
// grid's burst cannot starve another grid's jobs.
func jobLane(key, grid string) string {
	if i := strings.IndexByte(key, '/'); i > 0 {
		return key[:i]
	}
	return "grid:" + grid
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobPlanRequest
	if !s.decodePlanBody(w, r, &req) {
		return
	}
	key := req.IdempotencyKey
	if key == "" {
		key = r.Header.Get("Idempotency-Key")
	}
	// Reject what cannot plan synchronously, in the sync plane's order
	// (grid, model, then shape); a job that can only fail should not
	// occupy queue capacity. Model selectors validate against the registry
	// manifests only; the weights load when the job runs.
	var err error
	if _, ok := s.lookupGrid(req.Grid); !ok {
		err = &catalog.NotFoundError{Kind: "grid", Name: req.Grid}
	} else if err = s.models.validate(req.ModelID); err == nil {
		err = req.check()
	}
	if err != nil {
		status, body := planFailure(err)
		writeJSON(w, status, body)
		return
	}

	var traceID trace.TraceID
	if sp := trace.SpanFromContext(r.Context()); sp != nil {
		traceID = sp.TraceID
	}
	plan := req.PlanRequest
	view, err := s.jobs.Submit(jobs.Request{
		Kind:           "plan",
		IdempotencyKey: key,
		Namespace:      jobLane(key, req.Grid),
		Timeout:        s.deadlineFor(plan),
		TraceID:        traceID,
		Fn: func(ctx context.Context) (any, error) {
			// Each execution gets a fresh budget — a resubmitted job must
			// not inherit the exhausted accounting of a failed attempt.
			resp, err := s.plan(ctx, plan, s.newBudget())
			if err != nil {
				return nil, err
			}
			return resp, nil
		},
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		retry := int(s.jobs.RetryAfter().Seconds() + 0.5)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			fmt.Sprintf("job queue full; retry after %ds", retry)})
		return
	case errors.Is(err, jobs.ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"server draining; not accepting jobs"})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	w.Header().Set("Location", "/api/jobs/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown job"})
		return
	}
	// A job that failed over budget answers 429 like the synchronous
	// plane, still carrying the job view (its error string names the
	// resource) so clients see one consistent admission-control signal.
	// Every other state, failed or not, answers 200.
	status := http.StatusOK
	if view.State == jobs.StateFailed && view.Err != nil {
		if st, _ := planFailure(view.Err); st == http.StatusTooManyRequests {
			status = st
		}
	}
	writeJSON(w, status, view)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleJobEvents streams a job's state transitions as SSE, one
//
//	event: state
//	data: {job view JSON}
//
// frame per observed state starting with the current one, and closes after
// the terminal one. The shared obs SSE writer supplies the anti-buffering
// headers, the flush-per-frame discipline, and keep-alive comments while
// the job sits queued or running without transitions.
//
// Each frame re-reads the job's view after its change channel fires, so
// the stream always ends on the terminal frame; a slow reader may see
// intermediate states coalesced.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	v, changed, ok := s.jobs.Watch(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown job"})
		return
	}
	st, ok := obs.NewSSEStream(w)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{"streaming unsupported"})
		return
	}
	if s.opts.SSEKeepAlive >= 0 {
		stop := st.KeepAlive(r.Context(), s.opts.SSEKeepAlive)
		defer stop()
	}
	for {
		b, err := json.Marshal(v)
		if err != nil || !st.WriteEvent("state", "", b) || v.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
		if v, changed, ok = s.jobs.Watch(v.ID); !ok {
			return // evicted between frames: nothing left to report
		}
	}
}
