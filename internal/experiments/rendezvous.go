package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/routeplanning/mamorl/internal/trace"
)

// The rendezvous study (ours, extending the paper): missions continue past
// discovery until the whole team gathers at the destination — Definition
// 2's makespan "for reaching the mission goal" taken literally, and the
// regime the β feature was designed for. It reports how much of the total
// makespan each algorithm spends searching versus converging.

// RendezvousRow is one algorithm's rendezvous outcome.
type RendezvousRow struct {
	Algorithm string
	Stats     RunStats
	// MeanDiscoveryFrac is the mean fraction of mission epochs spent before
	// discovery (the rest is the gathering phase).
	MeanDiscoveryFrac float64
}

// RunRendezvous evaluates the runnable algorithms with Scenario.Rendezvous
// enabled.
func (h *Harness) RunRendezvous(ctx context.Context, p Params) ([]RendezvousRow, error) {
	algos := []string{AlgoApprox, AlgoApproxPK, AlgoBaseline1, AlgoBaseline2}
	p.grids = newGridMemo()
	lim := limiterFor(p)
	type rowOut struct {
		row RendezvousRow
		err error
	}
	rows := fanIndexed(lim, len(algos), func(k int) rowOut {
		algo := algos[k]
		row := RendezvousRow{Algorithm: algo}
		cp, cell := startCell(p, "cell.rendezvous", trace.String("algorithm", algo))
		defer cell.End()
		cp.Progress.Expect(cp.Runs)
		outs := runIndexed(lim, cp.Runs, func(run int) runOutcome {
			return instrumentRun(cp, algo, run, func(sp *trace.Span) runOutcome {
				if err := ctx.Err(); err != nil {
					return runOutcome{err: err}
				}
				sc, err := scenarioFor(cp, run)
				if err != nil {
					return runOutcome{err: err}
				}
				sc.Rendezvous = true
				res, cpu, mem, err := h.runOne(ctx, algo, sc, cp, run, sp)
				if err != nil {
					return runOutcome{err: fmt.Errorf("rendezvous %s run %d: %w", algo, run, err)}
				}
				return runOutcome{res: res, cpu: cpu, mem: mem}
			})
		})
		var fracSum float64
		var fracN int
		rs := RunStats{Algorithm: algo, Runs: p.Runs, PerRun: make([]RunValue, p.Runs)}
		for run, o := range outs {
			rs.PerRun[run] = RunValue{Seed: runSeed(p, run)}
			if o.err != nil {
				return rowOut{err: o.err}
			}
			rs.CPUTime += o.cpu
			rs.MemoryBytes = o.mem
			if o.res.Aborted {
				rs.AbortedRuns++
				rs.CollidedRuns++
				continue
			}
			if o.res.Collisions > 0 {
				rs.CollidedRuns++
			}
			if o.res.Found && o.res.Steps > 0 {
				rs.FoundRuns++
				rs.PerRun[run].Found = true
				rs.PerRun[run].TTotal = o.res.TTotal
				rs.PerRun[run].FTotal = o.res.FTotal
				rs.TTotal = append(rs.TTotal, o.res.TTotal)
				rs.FTotal = append(rs.FTotal, o.res.FTotal)
				fracSum += float64(o.res.DiscoverySteps) / float64(o.res.Steps)
				fracN++
			}
		}
		if len(rs.TTotal) == 0 {
			rs.NA = true
			rs.NAReason = "no completed rendezvous"
		}
		row.Stats = rs
		if fracN > 0 {
			row.MeanDiscoveryFrac = fracSum / float64(fracN)
		}
		return rowOut{row: row}
	})
	out := make([]RendezvousRow, 0, len(rows))
	for _, r := range rows {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.row)
	}
	return out, nil
}

// FormatRendezvous renders the study.
func FormatRendezvous(rows []RendezvousRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rendezvous: search + gather until the whole team reaches the goal\n")
	fmt.Fprintf(&b, "  %-38s %8s %10s %12s %14s\n",
		"algorithm", "found", "search%", "T_total", "F_total")
	for _, r := range rows {
		t, f := "N/A", "N/A"
		if !r.Stats.NA {
			t = fmt.Sprintf("%.2f", r.Stats.MeanT())
			f = fmt.Sprintf("%.1f", r.Stats.MeanF())
		}
		fmt.Fprintf(&b, "  %-38s %5d/%2d %9.0f%% %12s %14s\n",
			r.Algorithm, r.Stats.FoundRuns, r.Stats.Runs, 100*r.MeanDiscoveryFrac, t, f)
	}
	return b.String()
}
