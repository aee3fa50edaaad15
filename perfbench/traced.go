package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/registry"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/tmplar"
	"github.com/routeplanning/mamorl/internal/trace"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// timedPlanner wraps a planner and times its Decide calls. After each
// decision it also times, on the same live mission state, the feature
// extraction an approximate planner performs (LMContextInto plus
// AppendFeatures over the legal actions) and PredictNewlySensed at each
// move target. These probes only read the mission, so the decisions and
// the mission result stay those of the bare planner.
type timedPlanner struct {
	inner sim.Planner
	ext   features.Extractor

	decide, extract, predict, probe time.Duration
	decides, predicts               int

	ctx  features.NodeContext
	acts []sim.Action
	feat []float64
}

func (p *timedPlanner) Name() string { return p.inner.Name() }

func (p *timedPlanner) Decide(m *sim.Mission, i int) sim.Action {
	start := time.Now()
	a := p.inner.Decide(m, i)
	p.decide += time.Since(start)
	p.decides++

	probeStart := time.Now()
	c := p.ext.LMContextInto(&p.ctx, m, i, features.ResolveDest(m, i, features.NoDest))
	p.acts = m.AppendLegalActionsFor(p.acts[:0], i)
	for _, act := range p.acts {
		p.feat = c.AppendFeatures(p.feat[:0], act)
	}
	p.extract += time.Since(probeStart)
	start = time.Now()
	for _, act := range p.acts {
		if !act.IsWait() {
			to, _ := m.Apply(m.Cur(i), act)
			m.PredictNewlySensed(i, to)
			p.predicts++
		}
	}
	p.predict += time.Since(start)
	p.probe += time.Since(probeStart)
	return a
}

// layerTotals accumulates the traced replay's per-layer timings.
type layerTotals struct {
	decode, acquire, load, laneWait, reset, mission, encode, gridDecode time.Duration
	plans, loads, uploads, steps, respBytes                             int
	decide, extract, predict                                            time.Duration
	decides, predicts                                                   int
	mismatches                                                          int
}

func (a *layerTotals) add(b *layerTotals) {
	a.decode += b.decode
	a.acquire += b.acquire
	a.load += b.load
	a.laneWait += b.laneWait
	a.reset += b.reset
	a.mission += b.mission
	a.encode += b.encode
	a.gridDecode += b.gridDecode
	a.plans += b.plans
	a.loads += b.loads
	a.uploads += b.uploads
	a.steps += b.steps
	a.respBytes += b.respBytes
	a.decide += b.decide
	a.extract += b.extract
	a.predict += b.predict
	a.decides += b.decides
	a.predicts += b.predicts
	a.mismatches += b.mismatches
}

// scenarioFor builds the mission of a plan request the way the service
// does for the approx algorithm.
func scenarioFor(g *grid.Grid, req tmplar.PlanRequest) sim.Scenario {
	team := make(vessel.Team, len(req.Assets))
	for i, a := range req.Assets {
		team[i] = vessel.Asset{ID: i, SensingRadius: a.SensingRadius, MaxSpeed: a.MaxSpeed, Source: grid.NodeID(a.Source)}
	}
	comm := req.CommEvery
	if comm == 0 {
		comm = 3
	}
	return sim.Scenario{Grid: g, Team: team, Dest: grid.NodeID(req.Destination), CommEvery: comm, MaxSteps: req.MaxSteps}
}

func resident(cat *catalog.Catalog, key catalog.Key) bool {
	for _, e := range cat.Snapshot().Entries {
		if e.Grid == key.Grid && e.Model == key.Model {
			return true
		}
	}
	return false
}

// replayOne runs operation i through the service's layers in process:
// JSON decode, catalog Acquire, Entry.Do, sim.RunContext under a timing
// wrapper, and JSON encode of the HTTP answer. It checks that the mission
// matches the HTTP answer to the same request.
func replayOne(srv *tmplar.Server, w *serveWorkload, i int, httpRec record, acc *layerTotals) error {
	t, body := w.op(i)
	if t.kind == opUpload {
		start := time.Now()
		g, err := grid.Decode(bytes.NewReader(body))
		acc.gridDecode += time.Since(start)
		if err != nil {
			return err
		}
		srv.InstallGrid(g)
		acc.uploads++
		return nil
	}
	start := time.Now()
	var req tmplar.PlanRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return err
	}
	acc.decode += time.Since(start)

	key := catalog.Key{Grid: req.Grid, Model: req.ModelID}
	cat := srv.Catalog()
	miss := !resident(cat, key)
	ctx := context.Background()
	start = time.Now()
	ent, err := cat.Acquire(ctx, key)
	d := time.Since(start)
	if err != nil {
		return err
	}
	defer ent.Release()
	acc.acquire += d
	if miss {
		acc.load += d
		acc.loads++
	}

	var (
		res     sim.Result
		runErr  error
		fnStart time.Time
	)
	doStart := time.Now()
	err = ent.Do(ctx, req.Seed, func(ctx context.Context, ap *approx.Planner) error {
		fnStart = time.Now()
		ap.Reset(req.Seed) // Do already reset it; this times the call
		acc.reset += time.Since(fnStart)
		tp := &timedPlanner{inner: ap, ext: ent.Ext()}
		start := time.Now()
		res, runErr = sim.RunContext(ctx, scenarioFor(ent.Grid(), req), tp, sim.RunOptions{Collision: sim.RecordCollisions})
		acc.mission += time.Since(start) - tp.probe
		acc.decide += tp.decide
		acc.extract += tp.extract
		acc.predict += tp.predict
		acc.decides += tp.decides
		acc.predicts += tp.predicts
		return nil
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		return err
	}
	acc.laneWait += fnStart.Sub(doStart)
	acc.plans++
	acc.steps += res.Steps

	var resp tmplar.PlanResponse
	if err := json.Unmarshal(httpRec.body, &resp); err != nil {
		return err
	}
	if res.Steps != resp.Steps || res.TTotal != resp.TTotal || res.FTotal != resp.FTotal {
		acc.mismatches++
		fmt.Printf("FAIL traced op %d: steps/t_total/f_total %d/%v/%v, HTTP answered %d/%v/%v\n",
			i, res.Steps, res.TTotal, res.FTotal, resp.Steps, resp.TTotal, resp.FTotal)
	}
	var buf bytes.Buffer
	start = time.Now()
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		return err
	}
	acc.encode += time.Since(start)
	acc.respBytes += buf.Len()
	return nil
}

// traceServe replays the timed phase's operations in process with the same
// caller count, timing each layer from outside, then runs serial probes
// for HTTP overhead, trace overhead and registry loads. It returns how many
// replayed missions disagreed with their HTTP answers.
func traceServe(w *serveWorkload, svc *service, cl *client, recs []record, httpElapsed time.Duration, pl values) (int, error) {
	n := callers()
	parts := make([]layerTotals, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) || errs[c] != nil {
					return
				}
				if recs[i].status != http.StatusOK && recs[i].status != http.StatusCreated {
					continue // counted as failed by the untraced phase
				}
				errs[c] = replayOne(svc.srv, w, i, recs[i], &parts[c])
			}
		}(c)
	}
	wg.Wait()
	tracedElapsed := time.Since(start)
	var acc layerTotals
	for c := range parts {
		if errs[c] != nil {
			return 0, errs[c]
		}
		acc.add(&parts[c])
	}
	if acc.plans == 0 {
		return 0, fmt.Errorf("no plan was replayed")
	}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return us(d) / float64(n)
	}
	pl["bench.trace_gap_ratio"] = tracedElapsed.Seconds() / httpElapsed.Seconds()
	pl["tmplar.decode_us"] = per(acc.decode, acc.plans)
	pl["tmplar.encode_us"] = per(acc.encode, acc.plans)
	pl["tmplar.response_kb"] = float64(acc.respBytes) / 1024 / float64(acc.plans)
	pl["catalog.acquire_us"] = per(acc.acquire, acc.plans)
	pl["catalog.load_us"] = per(acc.load, acc.loads)
	pl["catalog.lane_wait_us"] = per(acc.laneWait, acc.plans)
	pl["approx.reset_us"] = per(acc.reset, acc.plans)
	pl["approx.decide_us"] = per(acc.decide, acc.decides)
	pl["approx.decides_per_plan"] = float64(acc.decides) / float64(acc.plans)
	pl["features.extract_us"] = per(acc.extract, acc.decides)
	pl["sim.predict_sensed_us"] = per(acc.predict, acc.predicts)
	pl["sim.mission_ms"] = per(acc.mission, acc.plans) / 1e3
	pl["sim.steps_per_plan"] = float64(acc.steps) / float64(acc.plans)
	pl["sim.step_us"] = per(acc.mission, acc.steps)
	pl["grid.decode_ms"] = per(acc.gridDecode, acc.uploads) / 1e3
	fmt.Printf("traced replay: %d plans, %d uploads in %v (%d callers); %d mismatches\n",
		acc.plans, acc.uploads, tracedElapsed.Round(time.Millisecond), n, acc.mismatches)

	if err := httpOverhead(svc, cl, w, recs, pl); err != nil {
		return 0, err
	}
	if err := missionTraceOverhead(svc.srv, w, recs, pl); err != nil {
		return 0, err
	}
	if w.modelSeed != 0 {
		if err := registryLoad(svc.modelDir, w.modelSeed, pl); err != nil {
			return 0, err
		}
	}
	return acc.mismatches, pipelineProbe(pl)
}

// probeOps is how many plan requests each serial probe uses.
const probeOps = 200

// planOps returns the indices of up to k answered sync plans.
func planOps(w *serveWorkload, recs []record, k int) []int {
	var out []int
	for i := 0; i < len(recs) && len(out) < k; i++ {
		if t, _ := w.op(i); t.kind == opPlan && recs[i].status == http.StatusOK {
			out = append(out, i)
		}
	}
	return out
}

// httpOverhead times the same requests serially over the loopback HTTP
// connection and through Handler().ServeHTTP in process; the difference
// of the means is what the network path and HTTP framing cost.
func httpOverhead(svc *service, cl *client, w *serveWorkload, recs []record, pl values) error {
	h := svc.srv.Handler()
	var viaHTTP, inProc time.Duration
	ops := planOps(w, recs, probeOps)
	for _, i := range ops {
		t, body := w.op(i)
		r := cl.do(t.kind, body)
		if r.status != http.StatusOK {
			return fmt.Errorf("probe op %d answered %d: %s", i, r.status, r.err)
		}
		viaHTTP += r.latency
		req := httptest.NewRequest(http.MethodPost, "/api/plan", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rr, req)
		inProc += time.Since(start)
		if rr.Code != http.StatusOK {
			return fmt.Errorf("probe op %d answered %d in process", i, rr.Code)
		}
	}
	if len(ops) > 0 {
		pl["tmplar.http_overhead_us"] = us(viaHTTP-inProc) / float64(len(ops))
	}
	return nil
}

// missionTraceOverhead runs the same missions with a ring-backed trace
// parent and without one, alternating the order, and reports the ratio of
// their total times.
func missionTraceOverhead(srv *tmplar.Server, w *serveWorkload, recs []record, pl values) error {
	tracer := trace.New(trace.NewRing(tmplar.DefaultTraceBuffer))
	var traced, plain time.Duration
	for k, i := range planOps(w, recs, probeOps) {
		_, body := w.op(i)
		var req tmplar.PlanRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		ent, err := srv.Catalog().Acquire(context.Background(), catalog.Key{Grid: req.Grid, Model: req.ModelID})
		if err != nil {
			return err
		}
		sc := scenarioFor(ent.Grid(), req)
		run := func(parent *trace.Span) (time.Duration, error) {
			p := approx.NewPlanner(ent.Model(), ent.Ext(), req.Seed)
			start := time.Now()
			_, err := sim.RunContext(context.Background(), sc, p, sim.RunOptions{TraceParent: parent})
			parent.End()
			return time.Since(start), err
		}
		for j := 0; j < 2; j++ {
			if (j+k)%2 == 0 {
				d, err := run(tracer.Start("request"))
				if err != nil {
					ent.Release()
					return err
				}
				traced += d
			} else {
				d, err := run(nil)
				if err != nil {
					ent.Release()
					return err
				}
				plain += d
			}
		}
		ent.Release()
	}
	if plain > 0 {
		pl["trace.mission_overhead_ratio"] = float64(traced) / float64(plain)
	}
	return nil
}

// registryLoad times a cold "seed:<n>" resolve: opening the store,
// matching the manifest and loading the model blob.
func registryLoad(dir string, seed int64, pl values) error {
	var times []float64
	for k := 0; k < 5; k++ {
		start := time.Now()
		store, err := registry.Open(dir)
		if err != nil {
			return err
		}
		man, err := store.ResolveMatch(func(m registry.Manifest) bool {
			return m.Kind == registry.KindLinreg && m.Seed == seed
		})
		if err != nil {
			return err
		}
		if _, err := registry.LoadLinear(store, man); err != nil {
			return err
		}
		times = append(times, ms(time.Since(start)))
	}
	pl["registry.load_ms"] = median(times)
	return nil
}

// pipelineProbe times the default model's training: the sample pipeline
// (approx.NewPipeline) and the linear fit, median of three.
func pipelineProbe(pl values) error {
	var pipeMs, fitMs []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		pipe, err := approx.NewPipeline(approx.TrainConfig{Seed: serverSeed})
		if err != nil {
			return err
		}
		pipeMs = append(pipeMs, ms(time.Since(start)))
		start = time.Now()
		if _, _, err := approx.FitLinearOpts(pipe.Data, nil, 0); err != nil {
			return err
		}
		fitMs = append(fitMs, ms(time.Since(start)))
	}
	pl["approx.pipeline_ms"] = median(pipeMs)
	pl["linreg.fit_ms"] = median(fitMs)
	return nil
}
