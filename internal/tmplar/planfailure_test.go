package tmplar

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/limits"
)

func TestPlanFailureMapping(t *testing.T) {
	overBudget := &limits.ErrOverBudget{Resource: limits.Nodes, Limit: 100, Used: 310}
	cases := []struct {
		name   string
		err    error
		status int
		body   any
	}{
		{"bad request", fmt.Errorf("plan: %w", badRequestError{errors.New("no assets")}),
			http.StatusBadRequest, errorResponse{"plan: no assets"}},
		{"not found", fmt.Errorf("acquire: %w", &catalog.NotFoundError{Kind: "grid", Name: "nowhere"}),
			http.StatusNotFound, notFoundResponse{Error: `acquire: unknown grid "nowhere"`, Resource: "grid", Name: "nowhere"}},
		{"over budget", fmt.Errorf("mission: %w", overBudget),
			http.StatusTooManyRequests, overBudgetResponse{
				Error: "mission: " + overBudget.Error(), Resource: "nodes", Limit: 100, Used: 310}},
		{"deadline", context.DeadlineExceeded,
			http.StatusServiceUnavailable, errorResponse{context.DeadlineExceeded.Error()}},
		{"canceled", context.Canceled,
			http.StatusServiceUnavailable, errorResponse{context.Canceled.Error()}},
		{"catalog closed", catalog.ErrClosed,
			http.StatusInternalServerError, errorResponse{catalog.ErrClosed.Error()}},
	}
	for _, c := range cases {
		status, body := planFailure(c.err)
		if status != c.status {
			t.Errorf("%s: status %d, want %d", c.name, status, c.status)
		}
		if body != c.body {
			t.Errorf("%s: body %#v, want %#v", c.name, body, c.body)
		}
	}
}

// TestPlanePlanFailureParity checks that a request no plan can serve gets
// the same answer, byte for byte, from the synchronous plane and from job
// admission.
func TestPlanePlanFailureParity(t *testing.T) {
	h := jobServer(t, 1, 4).Handler()
	cases := []struct {
		name   string
		mutate func(*PlanRequest)
		status int
	}{
		{"unknown grid", func(r *PlanRequest) { r.Grid = "nowhere" }, http.StatusNotFound},
		{"unknown model", func(r *PlanRequest) { r.ModelID = "no-such-model" }, http.StatusNotFound},
		{"no assets", func(r *PlanRequest) { r.Assets = nil }, http.StatusBadRequest},
		{"unknown algorithm", func(r *PlanRequest) { r.Algorithm = "quantum" }, http.StatusBadRequest},
		{"approx-pk without region", func(r *PlanRequest) { r.Algorithm = "approx-pk" }, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := opsPlanRequest()
		c.mutate(&req)
		direct := do(t, h, "POST", "/api/plan", req)
		job := do(t, h, "POST", "/api/jobs/plan", req)
		if direct.Code != c.status || job.Code != c.status {
			t.Errorf("%s: /api/plan %d, /api/jobs/plan %d, want %d", c.name, direct.Code, job.Code, c.status)
		}
		if !bytes.Equal(direct.Body.Bytes(), job.Body.Bytes()) {
			t.Errorf("%s: bodies differ:\n/api/plan      %s/api/jobs/plan %s", c.name, direct.Body, job.Body)
		}
	}
}

// FuzzPlanRequest posts raw bodies to both planning planes: whatever the
// client sends, the answer is a 2xx or a typed 4xx/503, never a 500.
func FuzzPlanRequest(f *testing.F) {
	s := jobServer(f, 1, 4)
	h := s.Handler()
	g, _ := s.lookupGrid("ops-area")
	b := g.Bounds()

	weather := opsPlanRequest()
	weather.Weather = &WeatherSpec{
		Gyre: &GyreSpec{CenterX: b.Center().X, CenterY: b.Center().Y, Radius: b.Width() / 2, Strength: 0.5},
		Storms: []StormSpec{{
			CenterX: b.Center().X, CenterY: b.Center().Y, Radius: b.Width(), Slowdown: 0.5,
		}},
	}
	weather.Rendezvous = true
	obstacles := opsPlanRequest()
	obstacles.Obstacles = []int32{20, 21, 22, 23, 24}
	pk := opsPlanRequest()
	pk.Algorithm = "approx-pk"
	dp, r := g.Pos(140), 3*g.AvgEdgeWeight()
	pk.Region = &RegionSpec{MinX: dp.X - r, MinY: dp.Y - r, MaxX: dp.X + r, MaxY: dp.Y + r}
	for _, req := range []PlanRequest{opsPlanRequest(), weather, obstacles, pk} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/api/plan", "/api/jobs/plan"} {
			rec := do(t, h, "POST", path, string(body))
			if rec.Code == http.StatusInternalServerError {
				t.Fatalf("%s answered 500 to %q: %s", path, body, rec.Body)
			}
		}
	})
}
