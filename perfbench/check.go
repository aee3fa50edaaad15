package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/tmplar"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// checkRecord returns "" when operation t with request body was answered
// as expected and its answer is correct, else what is wrong.
func checkRecord(w *serveWorkload, t template, body []byte, r record) string {
	if r.err != "" {
		return r.err
	}
	switch t.kind {
	case opUpload:
		if r.status != http.StatusCreated {
			return fmt.Sprintf("upload answered %d: %s", r.status, r.body)
		}
		var info struct {
			Name  string `json:"name"`
			Nodes int    `json:"nodes"`
			Edges int    `json:"edges"`
		}
		g := w.grids[t.grid]
		if err := json.Unmarshal(r.body, &info); err != nil {
			return "upload answer: " + err.Error()
		}
		if info.Name != g.Name() || info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
			return fmt.Sprintf("upload answer %+v does not describe grid %s", info, g.Name())
		}
		return ""
	default:
		if r.status != http.StatusOK {
			return fmt.Sprintf("plan answered %d: %s", r.status, r.body)
		}
		var req tmplar.PlanRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "request: " + err.Error()
		}
		var resp tmplar.PlanResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return "plan answer: " + err.Error()
		}
		return checkPlan(w.grids[t.grid], req, resp)
	}
}

// checkPlan verifies a plan against its request and grid:
//   - each asset has one route, with one leg per step;
//   - legs chain from the asset's source along grid edges (a wait stays);
//   - no leg's speed exceeds the asset's max_speed;
//   - each move's time and fuel are vessel.MoveTime/MoveFuel of its edge
//     weight, and a wait costs rewardfn.WaitTime and no fuel;
//   - route totals are the sums of their legs;
//   - t_total is the largest route time and f_total the sum of route fuel.
func checkPlan(g *grid.Grid, req tmplar.PlanRequest, resp tmplar.PlanResponse) string {
	if len(resp.Routes) != len(req.Assets) {
		return fmt.Sprintf("%d routes for %d assets", len(resp.Routes), len(req.Assets))
	}
	tMax, fSum := 0.0, 0.0
	for i, r := range resp.Routes {
		a := req.Assets[i]
		if r.Asset != i {
			return fmt.Sprintf("route %d names asset %d", i, r.Asset)
		}
		if len(r.Legs) != resp.Steps {
			return fmt.Sprintf("asset %d: %d legs for %d steps", i, len(r.Legs), resp.Steps)
		}
		at := a.Source
		t, f := 0.0, 0.0
		for k, leg := range r.Legs {
			if leg.From != at {
				return fmt.Sprintf("asset %d leg %d starts at %d, not at %d", i, k, leg.From, at)
			}
			if leg.Wait {
				if leg.To != leg.From || leg.Time != rewardfn.WaitTime || leg.Fuel != 0 {
					return fmt.Sprintf("asset %d leg %d: bad wait %+v", i, k, leg)
				}
			} else {
				w, err := g.EdgeWeight(grid.NodeID(leg.From), grid.NodeID(leg.To))
				if err != nil {
					return fmt.Sprintf("asset %d leg %d: %v", i, k, err)
				}
				if leg.Speed < 1 || leg.Speed > a.MaxSpeed {
					return fmt.Sprintf("asset %d leg %d: speed %d outside 1..%d", i, k, leg.Speed, a.MaxSpeed)
				}
				sp := float64(leg.Speed)
				if leg.Time != vessel.MoveTime(w, sp) || leg.Fuel != vessel.MoveFuel(w, sp) {
					return fmt.Sprintf("asset %d leg %d: time %v fuel %v, edge weight %v at speed %d gives %v and %v",
						i, k, leg.Time, leg.Fuel, w, leg.Speed, vessel.MoveTime(w, sp), vessel.MoveFuel(w, sp))
				}
			}
			t += leg.Time
			f += leg.Fuel
			at = leg.To
		}
		if r.Time != t || r.Fuel != f {
			return fmt.Sprintf("asset %d: route totals %v/%v, legs sum to %v/%v", i, r.Time, r.Fuel, t, f)
		}
		tMax = max(tMax, r.Time)
		fSum += r.Fuel
	}
	if resp.TTotal != tMax || resp.FTotal != fSum {
		return fmt.Sprintf("t_total %v f_total %v, routes give %v and %v", resp.TTotal, resp.FTotal, tMax, fSum)
	}
	return ""
}
