// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index). Each benchmark runs the
// corresponding experiment driver at a reduced scale so that the full
// `go test -bench=. -benchmem` completes in minutes; pass
// `-args -paperscale` for the paper's full 10-run protocol.
//
// Reported custom metrics carry the reproduced quantities (mean T_total,
// F_total, relative improvements, table bytes) so a bench run doubles as a
// results table.
package mamorl_test

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/experiments"
	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/neural"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
	"github.com/routeplanning/mamorl/internal/weather"
)

var paperScale = flag.Bool("paperscale", false, "run benches at the paper's full 10-run protocol")

// benchParallel is the run budget handed to the experiment drivers that
// report objective metrics only (Table 6, Figure 4/8, ablation). The sweep
// benches (Figure 5/6/7) stay serial: their CPU-timing columns are only
// meaningful without contention.
var benchParallel = flag.Int("benchparallel", 0, "Params.Parallel for the objective-metric benches; 0 = GOMAXPROCS")

func parallelism() int {
	if *benchParallel > 0 {
		return *benchParallel
	}
	return runtime.GOMAXPROCS(0)
}

// benchHarness is shared across benchmarks (training the sample source once).
var (
	benchOnce    sync.Once
	benchH       *experiments.Harness
	benchHarnErr error
)

func harness(b *testing.B) *experiments.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchH, benchHarnErr = experiments.NewHarness(approx.TrainConfig{Seed: 1})
	})
	if benchHarnErr != nil {
		b.Fatalf("harness: %v", benchHarnErr)
	}
	return benchH
}

func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	if !*paperScale {
		p = p.Quick()
		p.Nodes, p.Edges, p.MaxOutDegree = 200, 430, 8
		p.Assets, p.MaxSpeed = 3, 3
	}
	return p
}

// BenchmarkTable2ToyExample regenerates Table 2: time and fuel per speed
// for the toy example's two assets.
func BenchmarkTable2ToyExample(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, w := range []float64{2.0, 2.24} {
			for s := 1; s <= 3; s++ {
				sink += vessel.MoveTime(w, float64(s)) + vessel.MoveFuel(w, float64(s))
			}
		}
	}
	b.ReportMetric(vessel.MoveFuel(2, 2), "asset1_speed2_fuel")
	b.ReportMetric(vessel.MoveTime(2.24, 2), "asset2_speed2_time")
	_ = sink
}

// BenchmarkTable3Datasets regenerates the Caribbean mesh (and, at paper
// scale, the North America Shore and Atlantic meshes) and reports |V|/|E|.
func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := grid.CaribbeanGrid(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if g.NumNodes() != 710 || g.NumEdges() != 1684 {
			b.Fatalf("caribbean size drifted: %v", g.Stats())
		}
	}
	if *paperScale {
		na, err := grid.NorthAmericaShoreGrid(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(na.NumNodes()), "na_shore_nodes")
		atl, err := grid.AtlanticGrid(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(atl.NumNodes()), "atlantic_nodes")
	}
	b.ReportMetric(710, "caribbean_nodes")
	b.ReportMetric(1684, "caribbean_edges")
}

// BenchmarkTable5NNTraining trains the Table 5 network (2 layers: 5 ReLU +
// 1 linear) on the pipeline's LM samples.
func BenchmarkTable5NNTraining(b *testing.B) {
	h := harness(b)
	opts := neural.TrainOptions{Epochs: 50, BatchSize: 256, LearningRate: 0.05}
	if *paperScale {
		opts = neural.TrainOptions{} // batch 1000, 10000 epochs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := approx.FitNeural(h.Pipe.Data, opts, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Comparison runs the full algorithm comparison: all six
// algorithms on the four scenario blocks, including the exact solver where
// the memory budget admits it.
func BenchmarkTable6Comparison(b *testing.B) {
	benchTable6(b, parallelism())
}

// BenchmarkTable6ComparisonSerial is the same workload with the executor
// budget pinned to 1; the ns/op ratio against BenchmarkTable6Comparison is
// the parallel speedup (the cells and PerRun outcomes are byte-identical
// either way — see internal/experiments/executor_test.go).
func BenchmarkTable6ComparisonSerial(b *testing.B) {
	benchTable6(b, 1)
}

func benchTable6(b *testing.B, parallel int) {
	h := harness(b)
	p := experiments.DefaultParams()
	if !*paperScale {
		p = p.Quick()
	}
	p.Parallel = parallel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := h.RunTable6(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		// Surface the headline cells as metrics.
		for _, r := range rows {
			if r.Scenario == "|V|=400 |N|=2 Dmax=6" && !r.Stats.NA {
				switch r.Algorithm {
				case experiments.AlgoMaMoRL:
					b.ReportMetric(r.Stats.MeanT(), "exact_T_v400")
				case experiments.AlgoApprox:
					b.ReportMetric(r.Stats.MeanT(), "approx_T_v400")
				}
			}
		}
	}
}

// BenchmarkGenerateSynthetic is the grid-generation rung of the Table 6
// ladder: one seeded synthetic grid per op for each scenario shape, cycling
// through the ten seeds a paper-scale block uses.
func BenchmarkGenerateSynthetic(b *testing.B) {
	for _, sc := range experiments.Table6Scenarios(experiments.DefaultParams()) {
		p := sc.Params
		b.Run(fmt.Sprintf("v%d-e%d-d%d", p.Nodes, p.Edges, p.MaxOutDegree), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := grid.GenerateSynthetic(grid.SyntheticConfig{
					Nodes: p.Nodes, Edges: p.Edges, MaxOutDegree: p.MaxOutDegree,
					Seed: p.Seed + int64(i%10)*7919,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3FunctionApprox compares linear vs neural training time
// and mission quality.
func BenchmarkFigure3FunctionApprox(b *testing.B) {
	h := harness(b)
	p := benchParams()
	opts := neural.TrainOptions{Epochs: 100, BatchSize: 256, LearningRate: 0.05}
	if *paperScale {
		opts = neural.TrainOptions{}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := h.RunFigure3(context.Background(), p, opts, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup, "nn_train_slowdown_x")
		b.ReportMetric(r.Linear.MeanT(), "linear_T")
		b.ReportMetric(r.Neural.MeanT(), "nn_T")
	}
}

// BenchmarkFigure4Pareto extracts the Pareto front over per-run outcomes of
// the four runnable planners.
func BenchmarkFigure4Pareto(b *testing.B) {
	h := harness(b)
	p := benchParams()
	p.Parallel = parallelism()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := h.RunFigure4(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		approxShare := r.FrontShare[experiments.AlgoApprox] + r.FrontShare[experiments.AlgoApproxPK]
		b.ReportMetric(float64(len(r.Front)), "front_size")
		b.ReportMetric(float64(approxShare), "approx_front_points")
	}
}

// BenchmarkFigure5Sweeps runs the seven Figure 5 parameter sweeps for
// Approx-MaMoRL and reports the headline relative improvement.
func BenchmarkFigure5Sweeps(b *testing.B) {
	h := harness(b)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweeps, err := h.RunSweeps(context.Background(), experiments.AlgoApprox, p, !*paperScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sweeps[0].Points[0].RITimeVsB1, "ri_time_vs_b1_pct")
		b.ReportMetric(sweeps[0].Points[0].RIFuelVsB1, "ri_fuel_vs_b1_pct")
	}
}

// BenchmarkFigure6PartialKnowledge runs the same sweeps with the
// partial-knowledge planner.
func BenchmarkFigure6PartialKnowledge(b *testing.B) {
	h := harness(b)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweeps, err := h.RunSweeps(context.Background(), experiments.AlgoApproxPK, p, !*paperScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sweeps[0].Points[0].RITimeVsB1, "pk_ri_time_vs_b1_pct")
	}
}

// BenchmarkFigure7RunningTime reports the per-run planning time of
// Approx-MaMoRL vs Baseline-1 (the same sweep machinery viewed through its
// timing columns).
func BenchmarkFigure7RunningTime(b *testing.B) {
	h := harness(b)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweeps, err := h.RunSweeps(context.Background(), experiments.AlgoApprox, p, !*paperScale)
		if err != nil {
			b.Fatal(err)
		}
		last := sweeps[0].Points[len(sweeps[0].Points)-1]
		b.ReportMetric(float64(last.SubjectCPU.Microseconds()), "approx_plan_us")
		b.ReportMetric(float64(last.B1CPU.Microseconds()), "baseline1_plan_us")
	}
}

// BenchmarkFigure8Transfer cross-evaluates basin-trained models. The quick
// configuration pairs the Caribbean with a 500-node mesh; paper scale uses
// the full North America Shore grid.
func BenchmarkFigure8Transfer(b *testing.B) {
	carib, err := grid.CaribbeanGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	var partner *grid.Grid
	if *paperScale {
		partner, err = grid.NorthAmericaShoreGrid(5)
	} else {
		partner, err = grid.GenerateOceanMesh(grid.OceanMeshConfig{
			Name: "mini-shore", Region: carib.Bounds(), Nodes: 500, Edges: 1150, MaxOutDegree: 6, Seed: 9,
		})
	}
	if err != nil {
		b.Fatal(err)
	}
	runs := 3
	if *paperScale {
		runs = 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure8(context.Background(), carib, partner, experiments.Figure8Options{Runs: runs, Seed: int64(i), Parallel: parallelism()})
		if err != nil {
			b.Fatal(err)
		}
		// Transfer gap on the Caribbean: transferred vs native mean T.
		var native, transferred float64
		for _, c := range r.Cells {
			if c.EvaluatedOn == "caribbean" {
				if c.TrainedOn == "caribbean" {
					native = c.Stats.MeanT()
				} else {
					transferred = c.Stats.MeanT()
				}
			}
		}
		if native > 0 {
			b.ReportMetric(100*(transferred-native)/native, "transfer_gap_pct")
		}
	}
}

// BenchmarkLemmaTableSizes evaluates the Lemma 1-2 dense-size formulas for
// Table 6's scenarios (the memory-bottleneck analysis).
func BenchmarkLemmaTableSizes(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, s := range [][3]int{{704, 7, 2}, {400, 9, 3}, {400, 6, 2}, {200, 9, 2}} {
			actions := sim.ActionCount(s[1], 5)
			sink += core.PTableBytes(s[0], s[2], actions, 5)
			sink += core.QTableBytes(s[0], s[2], actions, 5)
		}
	}
	b.ReportMetric(core.QTableBytes(704, 2, sim.ActionCount(7, 5), 5)/(1<<30), "v704_q_gb")
	b.ReportMetric(core.QTableBytes(400, 3, sim.ActionCount(9, 5), 5)/(1<<40), "v400n3_q_tb")
	_ = sink
}

// --- Micro-benchmarks on the core machinery ----------------------------------

// BenchmarkApproxDecide measures one planning decision of the deployed
// planner (the latency TMPLAR sees per asset per epoch).
func BenchmarkApproxDecide(b *testing.B) {
	h := harness(b)
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 4, 5, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	pl := approx.NewPlanner(h.Linear, h.Pipe.Extractor, 1)
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pl.Decide(m, i%len(sc.Team))
	}
}

// BenchmarkExactDecide measures one ASM decision of the exact solver.
func BenchmarkExactDecide(b *testing.B) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 100, Edges: 210, MaxOutDegree: 6, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 2, 3, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := core.NewPlanner(sc, core.Config{Seed: 1}, rewardfn.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pl.Decide(m, i%2)
	}
}

// BenchmarkDijkstraCaribbean measures shortest-path computation on the
// Caribbean mesh (the partial-knowledge transit planner's setup cost).
func BenchmarkDijkstraCaribbean(b *testing.B) {
	g, err := grid.CaribbeanGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graphalg.Dijkstra(g, grid.NodeID(i%g.NumNodes()))
	}
}

// BenchmarkSensingQuery measures the WithinRadius spatial query issued by
// every asset at every epoch.
func BenchmarkSensingQuery(b *testing.B) {
	g, err := grid.CaribbeanGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	r := 1.5 * g.AvgEdgeWeight()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.WithinRadius(grid.NodeID(i%g.NumNodes()), r)
	}
}

// BenchmarkAblation runs the deployment-mechanism ablation study: the full
// Approx-MaMoRL planner against variants with one mechanism disabled each
// (frontier fallback, Voronoi partitioning, right of way, stall watchdog,
// TMM blocking). Not in the paper — it quantifies the design choices
// DESIGN.md §2 documents.
func BenchmarkAblation(b *testing.B) {
	h := harness(b)
	p := benchParams()
	p.Assets = 6
	p.Parallel = parallelism()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := h.RunAblation(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Variant == "full" {
				b.ReportMetric(float64(r.FoundRuns)/float64(r.Runs), "full_found_rate")
			}
			if r.Variant == "no-frontier" {
				b.ReportMetric(float64(r.FoundRuns)/float64(r.Runs), "no_frontier_found_rate")
			}
		}
	}
}

// BenchmarkNavigatorStep measures one rendezvous transit decision.
func BenchmarkNavigatorStep(b *testing.B) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 3, 3, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	nv := sim.NewNavigator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = nv.Step(m, i%3, sc.Dest)
	}
}

// BenchmarkWeatherFields measures environmental field evaluation (issued
// once per asset move).
func BenchmarkWeatherFields(b *testing.B) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 200, Edges: 430, MaxOutDegree: 8, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	bounds := g.Bounds()
	field := weather.Compose{
		weather.Gyre{Center: bounds.Center(), Radius: bounds.Width() / 3, Strength: 0.4},
		weather.Storms{Cells: []weather.StormCell{
			{Center: bounds.Center(), Radius: bounds.Width() / 4, Slowdown: 0.4},
		}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := grid.NodeID(i % g.NumNodes())
		e := g.Neighbors(v)[0]
		_ = field.SpeedFactor(g, v, e.To, float64(i))
	}
}

// BenchmarkMissionStep measures one full simulator epoch (3 assets moving,
// sensing, communicating).
func BenchmarkMissionStep(b *testing.B) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 3, 3, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	sc.MaxSteps = 1 << 30
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Done() {
			b.StopTimer()
			m, err = sim.NewMission(sc, sim.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		acts := make([]sim.Action, 3)
		for j := range acts {
			legal := m.LegalActionsFor(j)
			acts[j] = legal[i%len(legal)]
		}
		if _, err := m.ExecuteStep(acts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogDecide measures one Decide served through the planner
// catalog. The hot case is the steady state of a resident tenant: Acquire is
// a map hit plus an LRU touch, and Do pays the planner reset. The cold case
// alternates two keys through a capacity-1 catalog, so every Acquire misses,
// loads, and evicts — the worst-case churn of an oversubscribed working set.
// The hot-mission case resets once per 100 Decides, as serving does once per
// mission, so the reset no longer dominates the per-Decide cost.
func BenchmarkCatalogDecide(b *testing.B) {
	h := harness(b)
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 4, 5, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	loader := func(context.Context, string) (*catalog.ModelArtifact, error) {
		return &catalog.ModelArtifact{Model: h.Linear, Ext: h.Pipe.Extractor}, nil
	}
	ctx := context.Background()
	decideVia := func(b *testing.B, cat *catalog.Catalog, key catalog.Key, i int) {
		ent, err := cat.Acquire(ctx, key)
		if err != nil {
			b.Fatal(err)
		}
		defer ent.Release()
		if err := ent.Do(ctx, 1, func(_ context.Context, pl *approx.Planner) error {
			_ = pl.Decide(m, i%len(sc.Team))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("hot", func(b *testing.B) {
		cat := catalog.New(catalog.Options{LoadModel: loader})
		defer cat.Close()
		cat.InstallGrid("bench", g)
		decideVia(b, cat, catalog.Key{Grid: "bench"}, 0) // warm the entry
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decideVia(b, cat, catalog.Key{Grid: "bench"}, i)
		}
	})
	b.Run("hot-mission", func(b *testing.B) {
		const decidesPerMission = 100
		cat := catalog.New(catalog.Options{LoadModel: loader})
		defer cat.Close()
		cat.InstallGrid("bench", g)
		decideVia(b, cat, catalog.Key{Grid: "bench"}, 0) // warm the entry
		b.ResetTimer()
		for i := 0; i < b.N; i += decidesPerMission {
			ent, err := cat.Acquire(ctx, catalog.Key{Grid: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			n := min(decidesPerMission, b.N-i)
			err = ent.Do(ctx, 1, func(_ context.Context, pl *approx.Planner) error {
				for j := i; j < i+n; j++ {
					_ = pl.Decide(m, j%len(sc.Team))
				}
				return nil
			})
			ent.Release()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		cat := catalog.New(catalog.Options{Capacity: 1, LoadModel: loader})
		defer cat.Close()
		cat.InstallGrid("churn-a", g)
		cat.InstallGrid("churn-b", g)
		keys := []catalog.Key{{Grid: "churn-a"}, {Grid: "churn-b"}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decideVia(b, cat, keys[i%2], i)
		}
	})
}
