package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/trace"
)

// The ablation study measures what each deployment mechanism of the
// approximate planner contributes (DESIGN.md §2 documents why each exists).
// It is not in the paper — it justifies this implementation's resolutions
// of mechanics the paper leaves implicit.

// AblationVariant names a planner configuration.
type AblationVariant struct {
	Name string
	Opts approx.Options
}

// AblationVariants lists the full planner and one variant per disabled
// mechanism.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{"full", approx.Options{}},
		{"no-frontier", approx.Options{NoFrontier: true}},
		{"no-voronoi", approx.Options{NoVoronoi: true}},
		{"no-right-of-way", approx.Options{NoRightOfWay: true}},
		{"no-watchdog", approx.Options{NoWatchdog: true}},
		{"no-tmm-blocking", approx.Options{NoTMMBlocking: true}},
	}
}

// AblationResult is one variant's aggregate outcome.
type AblationResult struct {
	Variant      string
	Runs         int
	FoundRuns    int
	CollidedRuns int
	Collisions   int
	MeanT        float64
	MeanF        float64
	CPUPerRun    time.Duration
}

// RunAblation evaluates every variant over p.Runs seeded instances (the
// same instances for every variant, so differences are attributable to the
// mechanism).
func (h *Harness) RunAblation(ctx context.Context, p Params) ([]AblationResult, error) {
	variants := AblationVariants()
	p.grids = newGridMemo()
	lim := limiterFor(p)
	type varOut struct {
		res AblationResult
		err error
	}
	results := fanIndexed(lim, len(variants), func(k int) varOut {
		v := variants[k]
		cp, cell := startCell(p, "cell.ablation", trace.String("variant", v.Name))
		defer cell.End()
		cp.Progress.Expect(cp.Runs)
		type runOut struct {
			r   sim.Result
			cpu time.Duration
			err error
		}
		outs := runIndexed(lim, cp.Runs, func(run int) runOut {
			out := instrumentRun(cp, "ablation/"+v.Name, run, func(sp *trace.Span) runOutcome {
				if err := ctx.Err(); err != nil {
					return runOutcome{err: err}
				}
				sc, err := scenarioFor(cp, run)
				if err != nil {
					return runOutcome{err: err}
				}
				pl := approx.NewPlannerOpts(h.Linear, h.Pipe.Extractor, cp.Seed+int64(run)*31, v.Opts)
				start := time.Now()
				r, err := sim.RunContext(ctx, sc, pl, sim.RunOptions{TraceParent: sp})
				if err != nil {
					return runOutcome{err: fmt.Errorf("ablation %s run %d: %w", v.Name, run, err)}
				}
				return runOutcome{res: r, cpu: time.Since(start)}
			})
			return runOut{r: out.res, cpu: out.cpu, err: out.err}
		})
		res := AblationResult{Variant: v.Name, Runs: p.Runs}
		var tSum, fSum float64
		var cpu time.Duration
		for _, o := range outs {
			if o.err != nil {
				return varOut{err: o.err}
			}
			cpu += o.cpu
			if o.r.Found {
				res.FoundRuns++
				tSum += o.r.TTotal
				fSum += o.r.FTotal
			}
			if o.r.Collisions > 0 {
				res.CollidedRuns++
			}
			res.Collisions += o.r.Collisions
		}
		if res.FoundRuns > 0 {
			res.MeanT = tSum / float64(res.FoundRuns)
			res.MeanF = fSum / float64(res.FoundRuns)
		}
		res.CPUPerRun = cpu / time.Duration(maxInt(1, p.Runs))
		return varOut{res: res}
	})
	out := make([]AblationResult, 0, len(results))
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.res)
	}
	return out, nil
}

// FormatAblation renders the study.
func FormatAblation(results []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: Approx-MaMoRL deployment mechanisms (DESIGN.md §2)\n")
	fmt.Fprintf(&b, "  %-18s %8s %10s %12s %12s %10s\n",
		"variant", "found", "collided", "T_total", "F_total", "cpu/run")
	for _, r := range results {
		t := "N/A"
		f := "N/A"
		if r.FoundRuns > 0 {
			t = fmt.Sprintf("%.2f", r.MeanT)
			f = fmt.Sprintf("%.1f", r.MeanF)
		}
		fmt.Fprintf(&b, "  %-18s %5d/%2d %7d/%2d %12s %12s %10s\n",
			r.Variant, r.FoundRuns, r.Runs, r.CollidedRuns, r.Runs, t, f,
			formatDuration(r.CPUPerRun))
	}
	return b.String()
}
