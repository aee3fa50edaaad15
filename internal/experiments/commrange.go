package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/routeplanning/mamorl/internal/trace"
)

// The communication-range study (ours, extending the paper's Figure 5(g)):
// the paper varies how OFTEN assets exchange state; real maritime links
// also bound how FAR an exchange reaches (Section 2.4.1's "limited
// communication capabilities"). This sweep bounds the periodic exchange to
// a radio range, expressed in multiples of the grid's average edge weight,
// and measures the cost of operating with degraded connectivity.

// CommRangePoint is one swept range value's outcome.
type CommRangePoint struct {
	// RangeFactor is the radio range in average edge weights; 0 = the
	// paper's unlimited-range setting.
	RangeFactor float64
	Subject     RunStats
}

// RunCommRange sweeps the radio range for Approx-MaMoRL. Factors are in
// average-edge-weight units; 0 means unlimited.
func (h *Harness) RunCommRange(ctx context.Context, p Params, factors []float64) ([]CommRangePoint, error) {
	if len(factors) == 0 {
		factors = []float64{0, 8, 4, 2}
	}
	p.grids = newGridMemo()
	lim := limiterFor(p)
	type ptOut struct {
		pt  CommRangePoint
		err error
	}
	pts := fanIndexed(lim, len(factors), func(k int) ptOut {
		factor := factors[k]
		pv, cell := startCell(p, "cell.commrange", trace.Float("factor", factor))
		defer cell.End()
		if factor > 0 {
			// Resolve the factor against a representative grid of this
			// shape (all runs share the shape, only seeds differ).
			sc, err := scenarioFor(pv, 0)
			if err != nil {
				return ptOut{err: err}
			}
			pv.CommRange = factor * sc.Grid.AvgEdgeWeight()
		}
		rs, err := h.evaluateWith(ctx, AlgoApprox, pv, lim)
		if err != nil {
			return ptOut{err: fmt.Errorf("comm range %v: %w", factor, err)}
		}
		return ptOut{pt: CommRangePoint{RangeFactor: factor, Subject: rs}}
	})
	out := make([]CommRangePoint, 0, len(pts))
	for _, po := range pts {
		if po.err != nil {
			return nil, po.err
		}
		out = append(out, po.pt)
	}
	return out, nil
}

// FormatCommRange renders the study.
func FormatCommRange(points []CommRangePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Comm range: Approx-MaMoRL under range-limited periodic communication\n")
	fmt.Fprintf(&b, "  %-18s %8s %12s %14s %10s\n",
		"range (avg edges)", "found", "T_total", "F_total", "collided")
	for _, pt := range points {
		label := "unlimited"
		if pt.RangeFactor > 0 {
			label = fmt.Sprintf("%.0fx", pt.RangeFactor)
		}
		t, f := "N/A", "N/A"
		if !pt.Subject.NA {
			t = fmt.Sprintf("%.2f", pt.Subject.MeanT())
			f = fmt.Sprintf("%.1f", pt.Subject.MeanF())
		}
		fmt.Fprintf(&b, "  %-18s %5d/%2d %12s %14s %7d/%2d\n",
			label, pt.Subject.FoundRuns, pt.Subject.Runs, t, f,
			pt.Subject.CollidedRuns, pt.Subject.Runs)
	}
	return b.String()
}
