// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4): the algorithm comparison with its memory/CPU
// bottlenecks (Table 6), the function-approximation comparison (Figure 3),
// the Pareto front (Figure 4), the relative-improvement parameter sweeps
// with and without partial knowledge (Figures 5 and 6), the running-time
// sweeps (Figure 7), and the transfer-learning study (Figure 8). Every
// driver returns structured results plus a formatted text table, and is
// wired to both cmd/experiments and the repository-root benchmarks.
package experiments

import (
	"fmt"
	"sync"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/trace"
)

// Params mirrors Table 4's default parameter values and adds the run
// bookkeeping the evaluation protocol prescribes ("all results are
// presented as an average of 10 runs").
type Params struct {
	Nodes        int // |V|
	Edges        int // |E|
	MaxOutDegree int // D_max
	Assets       int // |N|
	MaxSpeed     int // sp
	Episodes     int // T_B (training episodes of the sample source)
	CommEvery    int // k
	// CommRange limits periodic communication to assets within this metric
	// distance (0 = unlimited). Not varied by the paper; the comm-range
	// extension study sweeps it.
	CommRange float64

	// Runs is how many seeded runs are averaged per cell.
	Runs int
	// Parallel caps concurrent runs inside Evaluate. 0 or 1 runs serially
	// — the default, because wall-clock timing columns (Figure 7) are only
	// meaningful without CPU contention. Set higher to speed up large
	// objective-only sweeps.
	Parallel int
	// SensingRadiusFactor scales sensing radius in average edge weights.
	SensingRadiusFactor float64
	// Seed bases all run seeds.
	Seed int64

	// Tracer, when non-nil, records one span per cell (driver × setting)
	// and per leaf run, with the mission span nested under the run span.
	// Tracing is pure observation: PerRun records are byte-identical with
	// it on or off (TestTracingDeterminism pins this).
	Tracer *trace.Tracer
	// Progress, when non-nil, receives live run-completion telemetry
	// (Expect/RunDone) from every driver.
	Progress *Progress
	// Metrics, when non-nil, gains experiments_runs_total counters and the
	// experiments_inflight_runs gauge.
	Metrics *obs.Registry
	// Budget, when non-nil, is shared by every run of the evaluation:
	// planners charge node expansions and training charges samples/bytes
	// against one pool, and runs abort once it is exhausted. Like Tracer,
	// it never perturbs results while within limits — PerRun records are
	// byte-identical with a budget on or off (TestBudgetDeterminism pins
	// this under the parallel executor).
	Budget *limits.Budget

	// traceParent parents run spans under the enclosing cell span. Drivers
	// set it via startCell; it is unexported so the public API stays
	// Tracer-only.
	traceParent *trace.Span
	// grids shares generated grids across the cells of one driver call.
	// Each driver sets a fresh one at entry; nil generates every grid
	// afresh.
	grids *gridMemo
}

// gridMemo generates each synthetic grid at most once: the algorithm cells
// of a scenario block, the points of a sweep that keep the grid shape, and
// the variants of the ablation all run on the same seeded grids. Sharing
// one *grid.Grid is safe because a Grid is immutable once built (the
// catalog shares grids across concurrent missions the same way). Entries
// live until the driver returns and drops the memo.
type gridMemo struct {
	mu      sync.Mutex
	entries map[grid.SyntheticConfig]*memoGrid
}

type memoGrid struct {
	once sync.Once
	g    *grid.Grid
	err  error
}

func newGridMemo() *gridMemo {
	return &gridMemo{entries: make(map[grid.SyntheticConfig]*memoGrid)}
}

// get returns gen(cfg), calling gen once per distinct cfg however many
// goroutines ask concurrently. A nil memo calls gen every time.
func (m *gridMemo) get(cfg grid.SyntheticConfig, gen func(grid.SyntheticConfig) (*grid.Grid, error)) (*grid.Grid, error) {
	if m == nil {
		return gen(cfg)
	}
	m.mu.Lock()
	e, ok := m.entries[cfg]
	if !ok {
		e = &memoGrid{}
		m.entries[cfg] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.g, e.err = gen(cfg) })
	return e.g, e.err
}

// startCell opens one cell span named name under p's tracer (or under an
// enclosing cell), returning Params whose leaf runs parent under it. The
// caller must End the returned span; a nil tracer yields a nil span and the
// original Params, so call sites need no conditionals.
func startCell(p Params, name string, attrs ...trace.Attr) (Params, *trace.Span) {
	var sp *trace.Span
	if p.traceParent != nil {
		sp = p.traceParent.Child(name, attrs...)
	} else if p.Tracer.Enabled() {
		sp = p.Tracer.Start(name, attrs...)
	}
	if sp != nil {
		p.traceParent = sp
	}
	return p, sp
}

// DefaultParams returns Table 4's defaults with the paper's 10-run
// averaging.
func DefaultParams() Params {
	return Params{
		Nodes:               400,
		Edges:               846,
		MaxOutDegree:        9,
		Assets:              6,
		MaxSpeed:            5,
		Episodes:            10,
		CommEvery:           3,
		Runs:                10,
		SensingRadiusFactor: 1.2,
		Seed:                1,
	}
}

// Quick returns a copy with the run count reduced for tests and benches
// that only verify mechanics, not statistics.
func (p Params) Quick() Params {
	p.Runs = 3
	return p
}

// scenarioFor builds the seeded RPP instance for one run: a synthetic grid
// of the configured shape (from p's grid memo, when the driver set one)
// with the team spread across it and the destination at the node farthest
// from the team.
func scenarioFor(p Params, run int) (sim.Scenario, error) {
	g, err := p.grids.get(grid.SyntheticConfig{
		Nodes:        p.Nodes,
		Edges:        p.Edges,
		MaxOutDegree: p.MaxOutDegree,
		Seed:         p.Seed + int64(run)*7919,
	}, grid.GenerateSynthetic)
	if err != nil {
		return sim.Scenario{}, fmt.Errorf("experiments: run %d grid: %w", run, err)
	}
	sc, err := approx.TrainingScenario(g, p.Assets, p.MaxSpeed, p.SensingRadiusFactor, p.CommEvery)
	if err != nil {
		return sim.Scenario{}, err
	}
	sc.CommRange = p.CommRange
	return sc, nil
}

// regionFor builds the partial-knowledge bounding box for a scenario: a box
// centered on the destination, a few average edge lengths wide (the paper
// does not publish its region sizes; this keeps the region a small fraction
// of the grid).
func regionFor(sc sim.Scenario) geo.Rect {
	d := sc.Grid.Pos(sc.Dest)
	r := 3 * sc.Grid.AvgEdgeWeight()
	return geo.NewRect(geo.Point{X: d.X - r, Y: d.Y - r}, geo.Point{X: d.X + r, Y: d.Y + r})
}
