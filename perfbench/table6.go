package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/experiments"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
)

// timedSeed is the Table 6 seed of every timed pass: the seed of
// DefaultParams, so the timed phase repeats the paper's configuration. The
// workload seed picks the scenarios of the check pass before it. A pass's
// cost depends on its scenarios, mostly through exact training: with new
// scenarios for each seed, the leaf-run p99 of ten seeds spread by about
// 0.12 of its median from the scenarios alone, before any machine noise.
var timedSeed = experiments.DefaultParams().Seed

// table6Params is the evaluated configuration: the paper's Table 4
// defaults, three runs per cell, leaf runs executed one at a time.
func table6Params(seed int64) experiments.Params {
	p := experiments.DefaultParams().Quick()
	p.Seed = seed
	p.Parallel = 1
	return p
}

// leafClock records when each leaf run completes, through the progress
// reporter's clock, which the harness reads once per finished run. Leaf
// runs execute serially on the caller's goroutine, so it needs no lock.
type leafClock struct{ times []time.Time }

func (c *leafClock) now() time.Time {
	t := time.Now()
	c.times = append(c.times, t)
	return t
}

func (c *leafClock) take() []time.Time {
	out := c.times
	c.times = nil
	return out
}

// exactFeasible reports, per Table6Scenarios block, whether exact MaMoRL
// must run (true) or come out N/A (false): the feasibility boundary the
// paper's Table 6 shows.
var exactFeasible = []bool{false, false, true, true}

// checkShape returns the rows that break the Table 6 shape: exact MaMoRL
// N/A on the |V|=704 and the |V|=400, |N|=3 blocks and run on the other
// two, and every cell holding all of its runs.
func checkShape(rows []experiments.Table6Row, base experiments.Params) []string {
	var bad []string
	scenarios := experiments.Table6Scenarios(base)
	if len(rows) != len(scenarios)*len(experiments.AllAlgorithms) {
		return []string{fmt.Sprintf("%d rows", len(rows))}
	}
	for k, r := range rows {
		sc := k / len(experiments.AllAlgorithms)
		if r.Scenario != scenarios[sc].Label {
			bad = append(bad, fmt.Sprintf("row %d is %q, want %q", k, r.Scenario, scenarios[sc].Label))
			continue
		}
		exact := r.Algorithm == experiments.AlgoMaMoRL
		if exact && r.Stats.NA == exactFeasible[sc] {
			bad = append(bad, fmt.Sprintf("%s / MaMoRL: N/A=%v (%s)", r.Scenario, r.Stats.NA, r.Stats.NAReason))
		}
		want := base.Runs
		if exact && !exactFeasible[sc] {
			want = 0 // refused before any run, for memory
		}
		if len(r.Stats.PerRun) != want {
			bad = append(bad, fmt.Sprintf("%s / %s: %d runs, want %d", r.Scenario, r.Algorithm, len(r.Stats.PerRun), want))
		}
	}
	return bad
}

// hashRows adds the seed-determined part of each row to h: per-run
// outcomes, counts and N/A status, but not CPUTime, which is a wall time.
func hashRows(h io.Writer, rows []experiments.Table6Row) {
	enc := json.NewEncoder(h)
	for _, r := range rows {
		s := r.Stats
		_ = enc.Encode([]any{r.Scenario, r.Algorithm, s.PerRun, s.FoundRuns, s.CollidedRuns, s.AbortedRuns, s.NA, s.NAReason})
	}
}

func runTable6(o options) (outcome, error) {
	setup, harnesses, err := timeSetup(setupRepeats, func(int) (*experiments.Harness, error) {
		return experiments.NewHarness(approx.TrainConfig{Seed: serverSeed})
	})
	if err != nil {
		return outcome{}, fmt.Errorf("setup: %w", err)
	}
	h := harnesses[0]
	out := outcome{ok: true, endToEnd: values{"setup_s": setup}, perLayer: values{}}

	// The check pass runs the workload seed's scenarios before the timed
	// phase, and warms the process up for it.
	check := table6Params(o.seed)
	rows, err := h.RunTable6(context.Background(), check)
	if err != nil {
		return outcome{}, fmt.Errorf("check pass with seed %d: %w", check.Seed, err)
	}
	out.attempted += len(rows) * check.Runs
	out.failed += reportShape(rows, check)
	fmt.Printf("table6 digest (check pass, seed %d): %s\n", check.Seed, rowsDigest(rows))

	rs := startSampler()
	passes, busy := table6Passes(h, table6Params(timedSeed), o.seconds)
	var leafMs []float64
	var want string
	for k, p := range passes {
		if p.err != nil {
			return outcome{}, fmt.Errorf("timed pass %d: %w", k, p.err)
		}
		leafMs = append(leafMs, p.leafMs...)
		out.attempted += len(p.rows) * p.base.Runs
		out.failed += reportShape(p.rows, p.base)
		// Every timed pass runs the same Params, so it must give the same rows.
		if got := rowsDigest(p.rows); k == 0 {
			want = got
		} else if got != want {
			out.failed++
			fmt.Printf("FAIL table6 timed pass %d digest %s, pass 0 gave %s\n", k, got, want)
		}
	}
	e2e, pl := out.endToEnd, out.perLayer
	rs.Stop(len(leafMs), e2e, pl)
	fmt.Printf("timed phase: %d passes at seed %d, %d leaf runs in %v, digest %s\n",
		len(passes), timedSeed, len(leafMs), busy.Round(time.Millisecond), want)
	if timed := out.attempted - len(rows)*check.Runs; len(leafMs) != timed {
		return outcome{}, fmt.Errorf("%d leaf runs timed, %d expected", len(leafMs), timed)
	}

	e2e["plans_per_s"] = float64(len(leafMs)) / busy.Seconds()
	e2e["plan_p50_ms"] = median(leafMs)
	e2e["plan_p99_ms"] = quantile(leafMs, 0.99)
	pl["eval_runs_per_s"] = e2e["plans_per_s"]
	pl["fail_ratio"] = float64(out.failed) / float64(out.attempted)

	if o.trace {
		if err := traceTable6(h, check, pl); err != nil {
			return outcome{}, fmt.Errorf("traced run: %w", err)
		}
	}
	return out, nil
}

// reportShape prints each break of the Table 6 shape in rows and returns
// how many there are.
func reportShape(rows []experiments.Table6Row, base experiments.Params) int {
	bad := checkShape(rows, base)
	for _, msg := range bad {
		fmt.Printf("FAIL table6 shape, seed %d: %s\n", base.Seed, msg)
	}
	return len(bad)
}

// rowsDigest is the hex SHA-256 of the seed-determined part of rows.
func rowsDigest(rows []experiments.Table6Row) string {
	h := sha256.New()
	hashRows(h, rows)
	return hex.EncodeToString(h.Sum(nil))
}

// pass is one RunTable6 call of the timed phase.
type pass struct {
	base   experiments.Params
	rows   []experiments.Table6Row
	leafMs []float64
	err    error
}

// table6Passes runs Table 6 at base pass after pass until d has passed and
// returns the passes with the time they took. Pass 0 always runs.
func table6Passes(h *experiments.Harness, base experiments.Params, d time.Duration) ([]pass, time.Duration) {
	clock := &leafClock{}
	prog := experiments.NewProgress(io.Discard, time.Hour)
	prog.SetNow(clock.now)
	clock.take()
	var out []pass
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < d; k++ {
		p := pass{base: base}
		p.base.Progress = prog
		passStart := time.Now()
		p.rows, p.err = h.RunTable6(context.Background(), p.base)
		prev := passStart
		for _, t := range clock.take() {
			p.leafMs = append(p.leafMs, ms(t.Sub(prev)))
			prev = t
		}
		out = append(out, p)
		if p.err != nil {
			break
		}
	}
	return out, time.Since(start)
}

// algoSlug names each algorithm in metric names.
var algoSlug = map[string]string{
	experiments.AlgoMaMoRL:     "mamorl",
	experiments.AlgoApprox:     "approx",
	experiments.AlgoApproxPK:   "approx-pk",
	experiments.AlgoBaseline1:  "baseline1",
	experiments.AlgoBaseline2:  "baseline2",
	experiments.AlgoRandomWalk: "random-walk",
}

// table6Scenario rebuilds the scenario of one leaf run from its Params the
// way the harness does: a seeded synthetic grid, the team spread across
// it, the destination farthest away.
func table6Scenario(p experiments.Params, run int) (sim.Scenario, time.Duration, error) {
	start := time.Now()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Nodes: p.Nodes, Edges: p.Edges, MaxOutDegree: p.MaxOutDegree, Seed: p.Seed + int64(run)*7919,
	})
	gen := time.Since(start)
	if err != nil {
		return sim.Scenario{}, 0, err
	}
	sc, err := approx.TrainingScenario(g, p.Assets, p.MaxSpeed, p.SensingRadiusFactor, p.CommEvery)
	return sc, gen, err
}

// traceTable6 times the experiments pipeline's layers from outside on the
// first pass's scenarios: each cell through Harness.Evaluate, grid
// generation per scenario shape, exact training on the feasible blocks,
// and the approximate planner's missions under the timing wrapper.
func traceTable6(h *experiments.Harness, base experiments.Params, pl values) error {
	ctx := context.Background()
	var acc layerTotals
	var train []float64
	for k, s := range experiments.Table6Scenarios(base) {
		p := s.Params
		for _, algo := range experiments.AllAlgorithms {
			start := time.Now()
			if _, err := h.Evaluate(ctx, algo, p); err != nil {
				return err
			}
			pl["experiments.cell_ms."+algoSlug[algo]] += ms(time.Since(start))
		}
		var gen []float64
		for run := 0; run < p.Runs; run++ {
			sc, d, err := table6Scenario(p, run)
			if err != nil {
				return err
			}
			gen = append(gen, ms(d))
			if exactFeasible[k] {
				start := time.Now()
				exact, err := core.NewPlanner(sc, core.Config{Episodes: p.Episodes, Seed: p.Seed + int64(run)*104729}, rewardfn.DefaultWeights())
				if err == nil {
					err = exact.Train()
				}
				if err != nil {
					return err
				}
				train = append(train, ms(time.Since(start)))
			}
			tp := &timedPlanner{inner: approx.NewPlanner(h.Linear, h.Pipe.Extractor, p.Seed+int64(run)*104729), ext: h.Pipe.Extractor}
			start := time.Now()
			res, err := sim.RunContext(ctx, sc, tp, sim.RunOptions{})
			if err != nil {
				return err
			}
			acc.mission += time.Since(start) - tp.probe
			acc.plans++
			acc.steps += res.Steps
			acc.decide += tp.decide
			acc.extract += tp.extract
			acc.predict += tp.predict
			acc.decides += tp.decides
			acc.predicts += tp.predicts
		}
		pl[fmt.Sprintf("grid.generate_ms.v%d-e%d-d%d", p.Nodes, p.Edges, p.MaxOutDegree)] = mean(gen)
	}
	pl["core.train_ms"] = mean(train)
	pl["approx.decide_us"] = us(acc.decide) / float64(acc.decides)
	pl["approx.decides_per_plan"] = float64(acc.decides) / float64(acc.plans)
	pl["features.extract_us"] = us(acc.extract) / float64(acc.decides)
	pl["sim.predict_sensed_us"] = us(acc.predict) / float64(acc.predicts)
	pl["sim.mission_ms"] = ms(acc.mission) / float64(acc.plans)
	pl["sim.steps_per_plan"] = float64(acc.steps) / float64(acc.plans)
	pl["sim.step_us"] = us(acc.mission) / float64(acc.steps)
	return pipelineProbe(pl)
}
