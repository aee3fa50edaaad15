package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/neural"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/stats"
	"github.com/routeplanning/mamorl/internal/trace"
)

// --- Figure 3: Approx-MaMoRL vs NN-Approx-MaMoRL -----------------------------

// Figure3Result compares the two function-approximation families on the
// same training data: training wall time and mission objectives.
type Figure3Result struct {
	LinearTrainTime time.Duration
	NeuralTrainTime time.Duration
	// Speedup is NeuralTrainTime / LinearTrainTime (the paper reports 15x).
	Speedup float64
	Linear  RunStats
	Neural  RunStats
	// NeuralTMMLoss/NeuralLMLoss are the networks' training MSE on the
	// shared samples — the NN entries of the learning-curve export.
	NeuralTMMLoss float64
	NeuralLMLoss  float64
}

// RunFigure3 fits both models on the harness's samples (Section 4.2) and
// evaluates them on the given parameter setting. nnOpts controls the SGD
// budget; the zero value selects Table 5's batch 1000 / 10000 epochs. seed
// seeds the neural fit; both evaluations use the shared Evaluate machinery,
// so their PerRun records are seed-paired run for run (an earlier
// hand-rolled loop used a different seed schedule and recorded objective
// values even for runs that never found the destination).
func (h *Harness) RunFigure3(ctx context.Context, p Params, nnOpts neural.TrainOptions, seed int64) (Figure3Result, error) {
	out := Figure3Result{LinearTrainTime: h.LinearTrainTime}
	nnModel, nnDur, err := approx.FitNeural(h.Pipe.Data, nnOpts, seed)
	if err != nil {
		return out, err
	}
	out.NeuralTrainTime = nnDur
	out.NeuralTMMLoss, out.NeuralLMLoss = nnModel.FitLoss(h.Pipe.Data)
	if h.LinearTrainTime > 0 {
		out.Speedup = float64(nnDur) / float64(h.LinearTrainTime)
	}

	p.grids = newGridMemo()
	lim := limiterFor(p)
	cp, cell := startCell(p, "cell.figure3")
	defer cell.End()
	lin, err := h.evaluateWith(ctx, AlgoApprox, cp, lim)
	if err != nil {
		return out, err
	}
	out.Linear = lin

	nn, err := evaluateCustom(ctx, "NN-Approx-MaMoRL", cp, lim, func(run int, sc sim.Scenario) (sim.Planner, float64) {
		pl := approx.NewPlanner(nnModel, h.Pipe.Extractor, runSeed(cp, run))
		return pl, float64(pl.MemoryBytes(len(sc.Team)))
	})
	if err != nil {
		return out, err
	}
	out.Neural = nn
	return out, nil
}

// FormatFigure3 renders the comparison.
func FormatFigure3(r Figure3Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: function approximation comparison\n")
	fmt.Fprintf(&b, "  training time: Approx-MaMoRL %v, NN-Approx-MaMoRL %v (NN is %.1fx slower)\n",
		r.LinearTrainTime, r.NeuralTrainTime, r.Speedup)
	fmt.Fprintf(&b, "  %-22s %10s %14s %8s\n", "model", "T_total", "F_total", "found")
	fmt.Fprintf(&b, "  %-22s %10.2f %14.1f %5d/%2d\n", "Approx-MaMoRL",
		r.Linear.MeanT(), r.Linear.MeanF(), r.Linear.FoundRuns, r.Linear.Runs)
	fmt.Fprintf(&b, "  %-22s %10.2f %14.1f %5d/%2d\n", "NN-Approx-MaMoRL",
		r.Neural.MeanT(), r.Neural.MeanF(), r.Neural.FoundRuns, r.Neural.Runs)
	return b.String()
}

// --- Figure 4: Pareto front of F_total and T_total ---------------------------

// Figure4Result holds per-algorithm objective points and the Pareto front
// of their union.
type Figure4Result struct {
	Points     map[string][]stats.Point2
	Front      []stats.Point2
	FrontShare map[string]int
}

// Figure4Algorithms are the planners whose outcomes populate the front
// (Table 6's runnable set; Baseline-2 is excluded since it aborts).
var Figure4Algorithms = []string{AlgoApprox, AlgoApproxPK, AlgoBaseline1, AlgoRandomWalk}

// RunFigure4 gathers per-run (F_total, T_total) outcomes for each planner
// and extracts the Pareto front (both objectives minimized).
func (h *Harness) RunFigure4(ctx context.Context, p Params) (Figure4Result, error) {
	out := Figure4Result{
		Points:     make(map[string][]stats.Point2),
		FrontShare: make(map[string]int),
	}
	p.grids = newGridMemo()
	lim := limiterFor(p)
	type algoOut struct {
		rs  RunStats
		err error
	}
	results := fanIndexed(lim, len(Figure4Algorithms), func(k int) algoOut {
		cp, cell := startCell(p, "cell.figure4", trace.String("algorithm", Figure4Algorithms[k]))
		defer cell.End()
		rs, err := h.evaluateWith(ctx, Figure4Algorithms[k], cp, lim)
		return algoOut{rs, err}
	})
	// The union is assembled serially in algorithm order, so the front is
	// identical whatever order the evaluations finished in.
	var union []stats.Point2
	for k, r := range results {
		if r.err != nil {
			return out, r.err
		}
		algo := Figure4Algorithms[k]
		for i := range r.rs.TTotal {
			pt := stats.Point2{X: r.rs.FTotal[i], Y: r.rs.TTotal[i], Tag: algo}
			out.Points[algo] = append(out.Points[algo], pt)
			union = append(union, pt)
		}
	}
	out.Front = stats.ParetoFront(union)
	for _, pt := range out.Front {
		out.FrontShare[pt.Tag]++
	}
	return out, nil
}

// FormatFigure4 renders the front composition.
func FormatFigure4(r Figure4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Pareto front of F_total and T_total\n")
	fmt.Fprintf(&b, "  front size %d; share by algorithm:\n", len(r.Front))
	for _, algo := range Figure4Algorithms {
		fmt.Fprintf(&b, "  %-38s %3d front points of %d runs\n", algo, r.FrontShare[algo], len(r.Points[algo]))
	}
	fmt.Fprintf(&b, "  front points (F_total, T_total):\n")
	for _, pt := range r.Front {
		fmt.Fprintf(&b, "    (%.1f, %.2f) %s\n", pt.X, pt.Y, pt.Tag)
	}
	return b.String()
}

// --- Figures 5, 6, 7: parameter sweeps ---------------------------------------

// SweepPoint is one parameter value's outcome: relative improvement of the
// subject algorithm against Baseline-1 and Random Walk on both objectives
// (Figures 5 and 6), plus per-run planning time for Figure 7.
type SweepPoint struct {
	Value float64
	// RI() percentages (positive: subject wins).
	RITimeVsB1 float64
	RIFuelVsB1 float64
	RITimeVsRW float64
	RIFuelVsRW float64
	// SignificantVsB1 reports the paired t-test on T_total at 95%.
	SignificantVsB1 bool
	// Planning wall time per run.
	SubjectCPU time.Duration
	B1CPU      time.Duration
	// Raw stats for downstream analysis.
	Subject, B1, RW RunStats
}

// SweepResult is one swept parameter's series.
type SweepResult struct {
	Param  string
	Points []SweepPoint
}

// SweepSpec names a swept parameter and its values.
type SweepSpec struct {
	Param  string
	Values []int
	Apply  func(Params, int) Params
}

// Sweeps returns the seven parameter sweeps of Figures 5-7 with the
// paper's Table 4 defaults held elsewhere. In quick mode each sweep keeps
// two values, enough to exercise the machinery.
func Sweeps(quick bool) []SweepSpec {
	trim := func(vs []int) []int {
		if quick && len(vs) > 2 {
			return []int{vs[0], vs[1]}
		}
		return vs
	}
	edgesFor := func(nodes int) int { return nodes * 846 / 400 } // Table 4 density
	return []SweepSpec{
		{"nodes", trim([]int{200, 400, 600, 800}), func(p Params, v int) Params {
			p.Nodes, p.Edges = v, edgesFor(v)
			return p
		}},
		// Edge counts sweep as percentages of the base density so the sweep
		// stays feasible for any base |V| and degree cap.
		{"edges", trim([]int{100, 125, 150, 175}), func(p Params, v int) Params {
			edges := p.Edges * v / 100
			if cap := p.Nodes*p.MaxOutDegree/2 - p.Nodes/10; edges > cap {
				edges = cap
			}
			p.Edges = edges
			return p
		}},
		{"neighbors", trim([]int{7, 9, 11, 13}), func(p Params, v int) Params {
			p.MaxOutDegree = v
			return p
		}},
		{"assets", trim([]int{2, 4, 6, 8}), func(p Params, v int) Params {
			p.Assets = v
			return p
		}},
		{"speed", trim([]int{2, 3, 5, 7}), func(p Params, v int) Params {
			p.MaxSpeed = v
			return p
		}},
		{"episodes", trim([]int{5, 10, 20}), func(p Params, v int) Params {
			p.Episodes = v
			return p
		}},
		{"comm-frequency", trim([]int{1, 3, 5, 9}), func(p Params, v int) Params {
			p.CommEvery = v
			return p
		}},
	}
}

// RunSweeps evaluates the subject algorithm (AlgoApprox for Figure 5,
// AlgoApproxPK for Figure 6) against Baseline-1 and Random Walk over every
// sweep. The same data carries Figure 7's running-time series.
func (h *Harness) RunSweeps(ctx context.Context, subject string, base Params, quick bool) ([]SweepResult, error) {
	p := base
	if quick {
		p = base.Quick()
	}
	p.grids = newGridMemo()
	lim := limiterFor(p)
	var out []SweepResult
	for _, spec := range Sweeps(quick) {
		spec := spec
		sr := SweepResult{Param: spec.Param}
		type ptOut struct {
			pt  SweepPoint
			err error
		}
		// Sweep points are independent cells; fan them out against the
		// shared budget. (The episodes sweep additionally retrains a
		// pipeline per point — bounded coordination-level work.)
		pts := fanIndexed(lim, len(spec.Values), func(k int) ptOut {
			v := spec.Values[k]
			pv := spec.Apply(p, v)
			hv := h
			if spec.Param == "episodes" {
				// T_B is the sample source's training budget (Figure 5f):
				// retrain the whole pipeline with that many exact-MaMoRL
				// episodes so the swept parameter actually reaches the
				// deployed model.
				var err error
				hv, err = NewHarness(approx.TrainConfig{
					Seed:   p.Seed,
					Core:   core.Config{Episodes: v},
					Tracer: p.Tracer,
				})
				if err != nil {
					return ptOut{err: fmt.Errorf("sweep episodes=%d: harness: %w", v, err)}
				}
			}
			pt, err := hv.sweepPoint(ctx, subject, pv, v, lim)
			if err != nil {
				return ptOut{err: fmt.Errorf("sweep %s=%d: %w", spec.Param, v, err)}
			}
			return ptOut{pt: pt}
		})
		for _, po := range pts {
			if po.err != nil {
				return nil, po.err
			}
			sr.Points = append(sr.Points, po.pt)
		}
		out = append(out, sr)
	}
	return out, nil
}

func (h *Harness) sweepPoint(ctx context.Context, subject string, p Params, value int, lim limiter) (SweepPoint, error) {
	pt := SweepPoint{Value: float64(value)}
	cp, cell := startCell(p, "cell.sweep",
		trace.String("subject", subject), trace.Int("value", int64(value)))
	defer cell.End()
	// The three algorithms of one point are themselves independent cells.
	algos := []string{subject, AlgoBaseline1, AlgoRandomWalk}
	type algoOut struct {
		rs  RunStats
		err error
	}
	results := fanIndexed(lim, len(algos), func(k int) algoOut {
		rs, err := h.evaluateWith(ctx, algos[k], cp, lim)
		return algoOut{rs, err}
	})
	for _, r := range results {
		if r.err != nil {
			return pt, r.err
		}
	}
	subj, b1, rw := results[0].rs, results[1].rs, results[2].rs
	pt.Subject, pt.B1, pt.RW = subj, b1, rw
	pt.RITimeVsB1 = stats.RelativeImprovement(b1.MeanT(), subj.MeanT())
	pt.RIFuelVsB1 = stats.RelativeImprovement(b1.MeanF(), subj.MeanF())
	pt.RITimeVsRW = stats.RelativeImprovement(rw.MeanT(), subj.MeanT())
	pt.RIFuelVsRW = stats.RelativeImprovement(rw.MeanF(), subj.MeanF())
	// Pair on run indices both algorithms completed (PairedObjectives); a
	// bare length check on TTotal cannot detect two algorithms failing on
	// different seeds and would feed the t-test misaligned samples.
	if tt, ok := PairedTTestT(subj, b1); ok {
		pt.SignificantVsB1 = tt.Significant(0.05)
	}
	runs := time.Duration(maxInt(1, subj.Runs))
	pt.SubjectCPU = subj.CPUTime / runs
	pt.B1CPU = b1.CPUTime / time.Duration(maxInt(1, b1.Runs))
	return pt, nil
}

// FormatSweeps renders Figures 5/6's RI() series.
func FormatSweeps(figure string, subject string, sweeps []SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %% relative improvement of %s\n", figure, subject)
	for _, sr := range sweeps {
		fmt.Fprintf(&b, "  varying %s:\n", sr.Param)
		fmt.Fprintf(&b, "    %8s %14s %14s %14s %14s %8s\n",
			"value", "RI(T) vs B1", "RI(F) vs B1", "RI(T) vs RW", "RI(F) vs RW", "sig95%")
		for _, pt := range sr.Points {
			fmt.Fprintf(&b, "    %8.0f %13.1f%% %13.1f%% %13.1f%% %13.1f%% %8v\n",
				pt.Value, pt.RITimeVsB1, pt.RIFuelVsB1, pt.RITimeVsRW, pt.RIFuelVsRW, pt.SignificantVsB1)
		}
	}
	return b.String()
}

// FormatFigure7 renders the running-time series from the same sweeps.
func FormatFigure7(subject string, sweeps []SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: planning time per run, %s vs Baseline-1\n", subject)
	for _, sr := range sweeps {
		fmt.Fprintf(&b, "  varying %s:\n", sr.Param)
		fmt.Fprintf(&b, "    %8s %14s %14s\n", "value", subject, "Baseline-1")
		for _, pt := range sr.Points {
			fmt.Fprintf(&b, "    %8.0f %14s %14s\n", pt.Value,
				formatDuration(pt.SubjectCPU), formatDuration(pt.B1CPU))
		}
	}
	return b.String()
}

// --- Figure 8: transfer learning ---------------------------------------------

// TransferCell is one train-basin/eval-basin outcome.
type TransferCell struct {
	TrainedOn   string
	EvaluatedOn string
	Stats       RunStats
}

// Figure8Result holds the four transfer cells.
type Figure8Result struct {
	Cells []TransferCell
}

// TransferGridSize truncates the ocean meshes for quick runs; 0 keeps the
// full Table 3 sizes.
type Figure8Options struct {
	Runs int
	Seed int64
	// TrainRegionSize is the subregion carved from each basin to host the
	// exact-MaMoRL sample source (default 50 nodes, the paper's training
	// grid size).
	TrainRegionSize int
	// EvalAssets, EvalMaxSpeed configure the evaluation missions.
	EvalAssets   int
	EvalMaxSpeed int
	// Parallel caps concurrent evaluation runs across all four transfer
	// cells (0 or 1 = serial), mirroring Params.Parallel.
	Parallel int
	// Tracer and Progress mirror Params: per-cell and per-run spans, live
	// run telemetry. Both may be nil.
	Tracer   *trace.Tracer
	Progress *Progress
}

func (o Figure8Options) withDefaults() Figure8Options {
	if o.Runs == 0 {
		o.Runs = 10
	}
	if o.TrainRegionSize == 0 {
		o.TrainRegionSize = 50
	}
	if o.EvalAssets == 0 {
		o.EvalAssets = 2
	}
	if o.EvalMaxSpeed == 0 {
		o.EvalMaxSpeed = 3
	}
	return o
}

// RunFigure8 reproduces the transfer-learning study: a policy trained on
// the Caribbean grid plans on the North America Shore grid and vice versa,
// compared with natively trained policies. Exact MaMoRL (the sample
// source) cannot run on a full basin, so each basin's pipeline trains on a
// 50-node connected subregion of it — the same size as the paper's
// training grid.
func RunFigure8(ctx context.Context, carib, naShore *grid.Grid, opts Figure8Options) (Figure8Result, error) {
	opts = opts.withDefaults()
	basins := []struct {
		name string
		g    *grid.Grid
	}{{"caribbean", carib}, {"north-america-shore", naShore}}
	lim := limiterFor(Params{Parallel: opts.Parallel})

	// Train one pipeline per basin; the two trainings are independent
	// coordination-level cells.
	type modelOut struct {
		h   *Harness
		err error
	}
	trainings := fanIndexed(lim, len(basins), func(b int) modelOut {
		basin := basins[b]
		start := basin.g.NearestNode(basin.g.Bounds().Center())
		region := grid.Neighborhood(basin.g, start, opts.TrainRegionSize)
		sub, err := grid.Subgraph(basin.g, region, basin.name+"-train")
		if err != nil {
			return modelOut{err: fmt.Errorf("figure 8: %s training region: %w", basin.name, err)}
		}
		h, err := NewHarness(approx.TrainConfig{Grid: sub, Seed: opts.Seed, MaxSpeed: opts.EvalMaxSpeed, Tracer: opts.Tracer})
		if err != nil {
			return modelOut{err: fmt.Errorf("figure 8: %s pipeline: %w", basin.name, err)}
		}
		return modelOut{h: h}
	})
	models := make(map[string]*Harness)
	for b, t := range trainings {
		if t.err != nil {
			return Figure8Result{}, t.err
		}
		models[basins[b].name] = t.h
	}

	// The four train×eval cells fan out, each running its seeded missions
	// through the leaf-level budget at fixed run indices.
	type cellOut struct {
		cell TransferCell
		err  error
	}
	cells := fanIndexed(lim, len(basins)*len(basins), func(c int) cellOut {
		trained, eval := basins[c/len(basins)], basins[c%len(basins)]
		h := models[trained.name]
		cell := opts.Tracer.Start("cell.figure8",
			trace.String("trained_on", trained.name), trace.String("evaluated_on", eval.name))
		defer cell.End()
		opts.Progress.Expect(opts.Runs)
		type f8Out struct {
			res sim.Result
			cpu time.Duration
			err error
		}
		outs := runIndexed(lim, opts.Runs, func(run int) f8Out {
			sp := cell.Child("run",
				trace.Int("run", int64(run)), trace.Int("seed", opts.Seed+int64(run)))
			defer func() {
				sp.End()
				opts.Progress.RunDone()
			}()
			if err := ctx.Err(); err != nil {
				return f8Out{err: err}
			}
			sc, err := missionOnGrid(eval.g, opts, run)
			if err != nil {
				return f8Out{err: err}
			}
			pl := approx.NewPlanner(h.Linear, h.Pipe.Extractor, opts.Seed+int64(run))
			start := time.Now()
			res, err := sim.RunContext(ctx, sc, pl, sim.RunOptions{TraceParent: sp})
			if sp.Enabled() && err == nil {
				sp.SetAttrs(trace.Bool("found", res.Found), trace.Int("steps", int64(res.Steps)))
			}
			return f8Out{res: res, cpu: time.Since(start), err: err}
		})
		rs := RunStats{Algorithm: AlgoApprox, Runs: opts.Runs}
		for run, o := range outs {
			if o.err != nil {
				return cellOut{err: o.err}
			}
			rs.CPUTime += o.cpu
			if o.res.Found {
				rs.FoundRuns++
			}
			rs.PerRun = append(rs.PerRun, RunValue{
				Seed: opts.Seed + int64(run), Found: o.res.Found,
				TTotal: o.res.TTotal, FTotal: o.res.FTotal,
			})
			rs.TTotal = append(rs.TTotal, o.res.TTotal)
			rs.FTotal = append(rs.FTotal, o.res.FTotal)
		}
		return cellOut{cell: TransferCell{TrainedOn: trained.name, EvaluatedOn: eval.name, Stats: rs}}
	})
	var out Figure8Result
	for _, c := range cells {
		if c.err != nil {
			return out, c.err
		}
		out.Cells = append(out.Cells, c.cell)
	}
	return out, nil
}

// missionOnGrid builds a seeded evaluation mission on an arbitrary grid:
// team spread from a seeded start, destination at the farthest node.
func missionOnGrid(g *grid.Grid, opts Figure8Options, run int) (sim.Scenario, error) {
	// Vary the team placement per run by rotating source selection.
	sc, err := approx.TrainingScenario(g, opts.EvalAssets, opts.EvalMaxSpeed, 1.2, 3)
	if err != nil {
		return sim.Scenario{}, err
	}
	n := g.NumNodes()
	for i := range sc.Team {
		sc.Team[i].Source = grid.NodeID((int(sc.Team[i].Source) + run*1237) % n)
	}
	// Re-derive the destination for the shifted sources.
	sources := make([]grid.NodeID, len(sc.Team))
	for i, a := range sc.Team {
		sources[i] = a.Source
	}
	sc.Dest = approx.FarthestNode(g, sources)
	if err := sc.Validate(); err != nil {
		// Source collision after rotation: nudge the second asset.
		sc.Team[1].Source = grid.NodeID((int(sc.Team[1].Source) + 1) % n)
		sources[1] = sc.Team[1].Source
		sc.Dest = approx.FarthestNode(g, sources)
		if err := sc.Validate(); err != nil {
			return sim.Scenario{}, err
		}
	}
	return sc, nil
}

// FormatFigure8 renders the transfer matrix.
func FormatFigure8(r Figure8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: transfer learning (Approx-MaMoRL)\n")
	fmt.Fprintf(&b, "  %-24s %-24s %10s %14s %8s\n", "trained on", "evaluated on", "T_total", "F_total", "found")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-24s %-24s %10.2f %14.1f %5d/%2d\n",
			c.TrainedOn, c.EvaluatedOn, c.Stats.MeanT(), c.Stats.MeanF(), c.Stats.FoundRuns, c.Stats.Runs)
	}
	return b.String()
}
