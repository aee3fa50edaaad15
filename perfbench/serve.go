package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/registry"
	"github.com/routeplanning/mamorl/internal/tmplar"
)

type opKind uint8

const (
	opPlan   opKind = iota // POST /api/plan
	opJob                  // POST /api/jobs/plan, then its SSE stream
	opUpload               // POST /api/grids
)

// template is one generated operation; operation i of a run is
// templates[i%len(templates)] with a request seed derived from i.
type template struct {
	kind   opKind
	grid   int
	model  string
	assets []tmplar.AssetSpec
	dest   int32
}

// serveWorkload is the generated input of one serving run.
type serveWorkload struct {
	seed      int64
	grids     []*grid.Grid
	uploads   [][]byte // grid.Encode of each grid, the upload body
	templates []template
	// modelSeed, when non-zero, is registered as a "seed:<n>" artifact in a
	// fresh model directory at every setup.
	modelSeed int64
}

// op returns operation i and its request body.
func (w *serveWorkload) op(i int) (template, []byte) {
	t := w.templates[i%len(w.templates)]
	if t.kind == opUpload {
		return t, w.uploads[t.grid]
	}
	req := tmplar.PlanRequest{
		Grid:        w.grids[t.grid].Name(),
		ModelID:     t.model,
		Assets:      t.assets,
		Destination: t.dest,
		Algorithm:   "approx",
		Seed:        w.seed*1_000_003 + int64(i),
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a PlanRequest always marshals
	}
	return t, body
}

// genGrid builds one synthetic grid of the ops-area shape family.
func genGrid(name string, nodes int, seed int64) (*grid.Grid, []byte, error) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Name: name, Nodes: nodes, Edges: nodes * 640 / 300, MaxOutDegree: 8, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := grid.Encode(&buf, g); err != nil {
		return nil, nil, err
	}
	return g, buf.Bytes(), nil
}

// randomTeam draws n distinct sources and a destination far from them.
func randomTeam(rng *rand.Rand, g *grid.Grid, n int) ([]tmplar.AssetSpec, int32) {
	perm := rng.Perm(g.NumNodes())[:n]
	sources := make([]grid.NodeID, n)
	assets := make([]tmplar.AssetSpec, n)
	for i, v := range perm {
		sources[i] = grid.NodeID(v)
		assets[i] = tmplar.AssetSpec{
			Source:        int32(v),
			SensingRadius: 2 * g.AvgEdgeWeight(),
			MaxSpeed:      2 + rng.Intn(2),
		}
	}
	return assets, int32(approx.FarthestNode(g, sources))
}

// numTemplates is how many distinct operations a workload cycles through.
const numTemplates = 2048

// opsAreaSeed generates the operations area of serve-hot: the 300-node
// grid examples/fleet-service deploys. Grids are fixed, like a
// deployment's areas, so that runs differ only in their missions: one
// random grid per seed moved plans_per_s by up to 40% between seeds.
const opsAreaSeed = 3

// mixedGridSeed bases the seeds of serve-mixed's twelve fixed grids.
const mixedGridSeed = 100

// hotWorkload: one 300-node ops-area grid, the default model, two assets.
func hotWorkload(seed int64) (*serveWorkload, error) {
	g, enc, err := genGrid("ops-area", 300, opsAreaSeed)
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{seed: seed, grids: []*grid.Grid{g}, uploads: [][]byte{enc}}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < numTemplates; i++ {
		assets, dest := randomTeam(rng, g, 2)
		w.templates = append(w.templates, template{kind: opPlan, assets: assets, dest: dest})
	}
	return w, nil
}

// mixedModelSeed trains the second model of serve-mixed.
const mixedModelSeed = 11

// mixedWorkload: 12 grids (four each of 150, 300 and 600 nodes) crossed
// with two models, Zipf-popular tenants, 1-3 assets, ~20% async jobs and
// ~1% grid re-uploads.
func mixedWorkload(seed int64) (*serveWorkload, error) {
	w := &serveWorkload{seed: seed, modelSeed: mixedModelSeed}
	for i, nodes := range []int{150, 300, 600} {
		for k := 0; k < 4; k++ {
			g, enc, err := genGrid(fmt.Sprintf("area-%d-%d", nodes, k), nodes, mixedGridSeed+int64(i*4+k))
			if err != nil {
				return nil, err
			}
			w.grids = append(w.grids, g)
			w.uploads = append(w.uploads, enc)
		}
	}
	models := []string{"", fmt.Sprintf("seed:%d", mixedModelSeed)}
	rng := rand.New(rand.NewSource(seed))
	// Tenant popularity is Zipf over 24 ranks. Rank r is grid (r/6)%4 of
	// size class r%3 (300, 150, 600 nodes) with model (r/3)%2, so every
	// seed spreads its load over the same tenants; a random ranking put a
	// 150- or a 600-node grid first at random.
	classOf := [3]int{1, 0, 2} // rank r%3 -> index into {150, 300, 600}
	ranks := len(w.grids) * len(models)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(ranks-1))
	for i := 0; i < numTemplates; i++ {
		r := int(zipf.Uint64())
		t := template{grid: classOf[r%3]*4 + (r/6)%4, model: models[(r/3)%2]}
		switch r := rng.Float64(); {
		case r < 0.01:
			t.kind = opUpload
		case r < 0.21:
			t.kind = opJob
		default:
			t.kind = opPlan
		}
		if t.kind != opUpload {
			t.assets, t.dest = randomTeam(rng, w.grids[t.grid], 1+rng.Intn(3))
		}
		w.templates = append(w.templates, t)
	}
	return w, nil
}

// service is one system under test: a tmplar server behind a loopback
// listener.
type service struct {
	srv      *tmplar.Server
	hs       *http.Server
	base     string
	served   chan struct{}
	modelDir string
}

// startService builds a server the way a deployment does: register the
// workload's extra model, construct (training the default model), install
// every grid, and start listening.
func startService(w *serveWorkload, workDir string) (*service, error) {
	svc := &service{served: make(chan struct{})}
	var opts tmplar.Options
	if w.modelSeed != 0 {
		dir, err := os.MkdirTemp(workDir, "models-")
		if err != nil {
			return nil, err
		}
		svc.modelDir = dir
		if err := registerModel(dir, w.modelSeed); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		opts.ModelDir = dir
	}
	srv, err := tmplar.NewServerOpts(serverSeed, opts)
	if err != nil {
		os.RemoveAll(svc.modelDir)
		return nil, err
	}
	svc.srv = srv
	for _, g := range w.grids {
		srv.InstallGrid(g)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.srv.Close()
		os.RemoveAll(svc.modelDir)
		return nil, err
	}
	svc.base = "http://" + ln.Addr().String()
	svc.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(svc.served)
		_ = svc.hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return svc, nil
}

// registerModel trains the approximate model for seed and stores it in the
// registry at dir, where the server resolves it as "seed:<seed>".
func registerModel(dir string, seed int64) error {
	store, err := registry.Open(dir)
	if err != nil {
		return err
	}
	cfg := approx.TrainConfig{Seed: seed}
	pipe, err := approx.NewPipeline(cfg)
	if err != nil {
		return err
	}
	model, _, err := approx.FitLinearOpts(pipe.Data, nil, 0)
	if err != nil {
		return err
	}
	_, err = registry.PutLinear(store, model, registry.TrainMeta(pipe.Scenario.Grid, cfg))
	return err
}

// stop closes the listener and every connection, waits for the serving
// goroutine, and releases the server.
func (s *service) stop() {
	_ = s.hs.Close()
	<-s.served
	s.srv.Close()
	if s.modelDir != "" {
		os.RemoveAll(s.modelDir)
	}
}

// record is one answered operation.
type record struct {
	status  int
	latency time.Duration
	// body holds the plan response: the sync answer, the job's result, or
	// the upload answer.
	body []byte
	// queueWait and exec are the job view's phase times in seconds.
	queueWait, exec float64
	err             string
}

// client issues workload operations over HTTP, one at a time per caller.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do runs one operation and times it from the first byte sent until the
// answer (for a job: its terminal state) has been read.
func (c *client) do(kind opKind, body []byte) record {
	start := time.Now()
	var rec record
	switch kind {
	case opPlan:
		rec.status, rec.body, rec.err = c.post("/api/plan", body)
	case opUpload:
		rec.status, rec.body, rec.err = c.post("/api/grids", body)
	case opJob:
		rec = c.job(body)
	}
	rec.latency = time.Since(start)
	return rec
}

func (c *client) post(path string, body []byte) (int, []byte, string) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err.Error()
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err.Error()
	}
	return resp.StatusCode, b, ""
}

// jobView is the part of a jobs.View the benchmark reads.
type jobView struct {
	ID               string          `json:"id"`
	State            string          `json:"state"`
	QueueWaitSeconds float64         `json:"queue_wait_seconds"`
	ExecSeconds      float64         `json:"exec_seconds"`
	Error            string          `json:"error"`
	Result           json.RawMessage `json:"result"`
}

// job submits a plan job and follows its SSE stream to a terminal state.
// A done job reports status 200 and the plan as body.
func (c *client) job(body []byte) record {
	status, b, errText := c.post("/api/jobs/plan", body)
	if status != http.StatusAccepted {
		return record{status: status, err: errText + string(b)}
	}
	var v jobView
	if err := json.Unmarshal(b, &v); err != nil {
		return record{err: "job submit answer: " + err.Error()}
	}
	resp, err := c.hc.Get(c.base + "/api/jobs/" + v.ID + "/events")
	if err != nil {
		return record{err: err.Error()}
	}
	defer func() {
		// The stream ends after the terminal frame; reading it to the end
		// lets the connection be reused.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &v); err != nil {
			return record{err: "job event: " + err.Error()}
		}
		switch v.State {
		case "queued", "running":
			continue
		case "done":
			return record{status: http.StatusOK, body: v.Result, queueWait: v.QueueWaitSeconds, exec: v.ExecSeconds}
		default:
			return record{status: http.StatusInternalServerError, err: v.State + ": " + v.Error}
		}
	}
	return record{err: fmt.Sprintf("job %s stream ended without a terminal state: %v", v.ID, sc.Err())}
}

// callers is the closed-loop client count: at most one per CPU, and at
// most two, so the load shape is the same on larger machines.
func callers() int { return min(runtime.NumCPU(), 2) }

// closedLoop runs the workload for d with n callers, each sending its next
// operation only after the previous one was answered. Operations are taken
// in index order, so the answered set is always the prefix [0, len).
func closedLoop(cl *client, w *serveWorkload, n int, d time.Duration, store *arena) ([]record, time.Duration) {
	var next atomic.Int64
	type indexed struct {
		i   int
		rec record
	}
	parts := make([][]indexed, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t, body := w.op(i)
				rec := cl.do(t.kind, body)
				var err error
				if rec.body, err = store.keep(rec.body); err != nil {
					rec.err = err.Error()
				}
				parts[c] = append(parts[c], indexed{i, rec})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	recs := make([]record, next.Load())
	for _, p := range parts {
		for _, x := range p {
			recs[x.i] = x.rec
		}
	}
	return recs, elapsed
}

// prefixLen is how many leading operations the determinism check replays.
const prefixLen = 64

// digest hashes the answers of the first n operations.
func digest(recs []record, n int) string {
	h := sha256.New()
	for _, r := range recs[:n] {
		fmt.Fprintf(h, "%d %d\n", r.status, len(r.body))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runServeHot(o options) (outcome, error) {
	w, err := hotWorkload(o.seed)
	if err != nil {
		return outcome{}, err
	}
	return runServe(o, w)
}

func runServeMixed(o options) (outcome, error) {
	w, err := mixedWorkload(o.seed)
	if err != nil {
		return outcome{}, err
	}
	return runServe(o, w)
}

// runServe is the body of both serving workloads.
func runServe(o options, w *serveWorkload) (outcome, error) {
	setup, svcs, err := timeSetup(setupRepeats, func(int) (*service, error) {
		return startService(w, o.workDir)
	})
	defer func() {
		for _, s := range svcs {
			s.stop()
		}
	}()
	if err != nil {
		return outcome{}, fmt.Errorf("setup: %w", err)
	}
	// svcs[0] takes the load; svcs[1] stays untouched for the serial
	// replay of the determinism check. The rest only fed setup_s.
	for _, s := range svcs[2:] {
		s.stop()
	}
	svcs = svcs[:2]

	n := callers()
	cl := newClient(svcs[0].base, n)
	defer cl.close()
	// One answered request per caller warms connections and the catalog
	// before timing, as a long-running service would be.
	for i := 0; i < n; i++ {
		t, body := w.op(i)
		cl.do(t.kind, body)
	}
	before := svcs[0].srv.Catalog().Stats()
	rs := startSampler()
	store := &arena{}
	defer store.release()
	recs, elapsed := closedLoop(cl, w, n, o.seconds, store)
	out := outcome{attempted: len(recs), ok: true, endToEnd: values{"setup_s": setup}, perLayer: values{}}
	e2e, pl := out.endToEnd, out.perLayer
	rs.Stop(len(recs), e2e, pl)
	after := svcs[0].srv.Catalog().Stats()

	var planLat, jobLat, upLat, queueWait, exec []float64
	for i, r := range recs {
		t, body := w.op(i)
		if msg := checkRecord(w, t, body, r); msg != "" {
			out.failed++
			if out.failed <= 5 {
				fmt.Printf("FAIL op %d: %s\n", i, msg)
			}
			continue
		}
		switch t.kind {
		case opPlan:
			planLat = append(planLat, ms(r.latency))
		case opJob:
			jobLat = append(jobLat, ms(r.latency))
			queueWait = append(queueWait, r.queueWait*1e3)
			exec = append(exec, r.exec*1e3)
		case opUpload:
			upLat = append(upLat, ms(r.latency))
		}
	}
	fmt.Printf("timed phase: %d ops in %v with %d callers: %d plans, %d jobs, %d uploads, %d failed\n",
		len(recs), elapsed.Round(time.Millisecond), n, len(planLat), len(jobLat), len(upLat), out.failed)
	e2e["plans_per_s"] = float64(len(planLat)+len(jobLat)) / elapsed.Seconds()
	e2e["plan_p50_ms"] = median(planLat)
	e2e["plan_p99_ms"] = quantile(planLat, 0.99)

	pl["fail_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	pl["job_p50_ms"] = median(jobLat)
	pl["job_p99_ms"] = quantile(jobLat, 0.99)
	pl["upload_p50_ms"] = median(upLat)
	pl["jobs.queue_wait_ms"] = mean(queueWait)
	pl["jobs.exec_ms"] = mean(exec)
	catalogDeltas(before, after, pl)
	fmt.Printf("sync plans: n=%d p50=%.3fms p99=%.3fms; jobs: n=%d p50=%.3fms p99=%.3fms; uploads: n=%d p50=%.3fms\n",
		len(planLat), e2e["plan_p50_ms"], e2e["plan_p99_ms"], len(jobLat), pl["job_p50_ms"], pl["job_p99_ms"], len(upLat), pl["upload_p50_ms"])
	if len(planLat) < 1000 {
		fmt.Printf("note: plan_p99_ms rests on %d samples, fewer than 1000\n", len(planLat))
	}

	// Determinism: the prefix answered under concurrency must equal a
	// serial replay against the fresh server.
	p := min(prefixLen, len(recs))
	serial := newClient(svcs[1].base, 1)
	defer serial.close()
	replay := make([]record, p)
	for i := range replay {
		t, body := w.op(i)
		replay[i] = serial.do(t.kind, body)
	}
	got, want := digest(recs, p), digest(replay, p)
	fmt.Printf("determinism digest (first %d ops): concurrent=%s serial=%s\n", p, got, want)
	if got != want {
		fmt.Println("FAIL determinism: concurrent and serial answers differ")
		out.ok = false
	}

	if o.trace {
		mismatches, err := traceServe(w, svcs[0], cl, recs, elapsed, pl)
		if err != nil {
			return outcome{}, fmt.Errorf("traced run: %w", err)
		}
		out.failed += mismatches
		pl["fail_ratio"] = float64(out.failed) / float64(max(out.attempted, 1))
	}
	return out, nil
}

// catalogDeltas folds the catalog counters of the timed phase into pl.
func catalogDeltas(before, after catalog.Stats, pl values) {
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	if hits+misses > 0 {
		pl["catalog.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	pl["catalog.loads"] = float64(after.Loads - before.Loads)
	pl["catalog.evictions"] = float64(after.Evictions - before.Evictions)
}
