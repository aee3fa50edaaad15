package tmplar

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/obs"
)

// sharedServer is built once per test binary (model training dominates).
var sharedServer *Server

func server(t testing.TB) *Server {
	t.Helper()
	if sharedServer == nil {
		s, err := NewServer(17)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
			Name: "ops-area", Nodes: 150, Edges: 330, MaxOutDegree: 8, Seed: 4,
		})
		if err != nil {
			t.Fatalf("grid: %v", err)
		}
		s.InstallGrid(g)
		sharedServer = s
	}
	return sharedServer
}

func do(t *testing.T, h http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if s, ok := body.(string); ok {
			buf.WriteString(s)
		} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode body: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealth(t *testing.T) {
	rec := do(t, server(t).Handler(), "GET", "/healthz", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
}

func TestListGrids(t *testing.T) {
	rec := do(t, server(t).Handler(), "GET", "/api/grids", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	var infos []gridInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatalf("decode: %v", err)
	}
	found := false
	for _, gi := range infos {
		if gi.Name == "ops-area" && gi.Nodes == 150 {
			found = true
		}
	}
	if !found {
		t.Errorf("ops-area missing from %v", infos)
	}
}

func TestUploadGrid(t *testing.T) {
	s := server(t)
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Name: "uploaded", Nodes: 30, Edges: 60, MaxOutDegree: 6, Seed: 2,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	var buf bytes.Buffer
	if err := grid.Encode(&buf, g); err != nil {
		t.Fatalf("encode grid: %v", err)
	}
	rec := do(t, s.Handler(), "POST", "/api/grids", buf.String())
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	if _, ok := s.lookupGrid("uploaded"); !ok {
		t.Error("uploaded grid not registered")
	}
}

func TestUploadGridRejectsGarbage(t *testing.T) {
	rec := do(t, server(t).Handler(), "POST", "/api/grids", "{not json")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage upload: %d", rec.Code)
	}
}

func TestPlanGlobal(t *testing.T) {
	s := server(t)
	req := PlanRequest{
		Grid: "ops-area",
		Assets: []AssetSpec{
			{Source: 0, SensingRadius: 10, MaxSpeed: 3},
			{Source: 75, SensingRadius: 10, MaxSpeed: 3},
		},
		Destination: 140,
		Seed:        5,
	}
	rec := do(t, s.Handler(), "POST", "/api/plan", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
	}
	var resp PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.Found {
		t.Fatalf("mission failed: %+v", resp)
	}
	if len(resp.Routes) != 2 {
		t.Fatalf("routes = %d", len(resp.Routes))
	}
	// Route legs must chain: each leg starts where the previous ended, and
	// per-asset totals must reconcile with the mission objectives.
	maxTime := 0.0
	totalFuel := 0.0
	for _, route := range resp.Routes {
		prevTo := int32(req.Assets[route.Asset].Source)
		for _, leg := range route.Legs {
			if leg.From != prevTo {
				t.Fatalf("asset %d: leg starts at %d, previous ended at %d", route.Asset, leg.From, prevTo)
			}
			prevTo = leg.To
		}
		if route.Time > maxTime {
			maxTime = route.Time
		}
		totalFuel += route.Fuel
	}
	if math.Abs(maxTime-resp.TTotal) > 1e-6 {
		t.Errorf("T_total %v != max route time %v", resp.TTotal, maxTime)
	}
	if math.Abs(totalFuel-resp.FTotal) > 1e-6 {
		t.Errorf("F_total %v != summed route fuel %v", resp.FTotal, totalFuel)
	}
}

func TestPlanPartialKnowledge(t *testing.T) {
	s := server(t)
	g, _ := s.lookupGrid("ops-area")
	dp := g.Pos(140)
	r := 3 * g.AvgEdgeWeight()
	req := PlanRequest{
		Grid: "ops-area",
		Assets: []AssetSpec{
			{Source: 0, SensingRadius: 10, MaxSpeed: 3},
			{Source: 75, SensingRadius: 10, MaxSpeed: 3},
		},
		Destination: 140,
		Algorithm:   "approx-pk",
		Region:      &RegionSpec{MinX: dp.X - r, MinY: dp.Y - r, MaxX: dp.X + r, MaxY: dp.Y + r},
		Seed:        5,
	}
	rec := do(t, s.Handler(), "POST", "/api/plan", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
	}
	var resp PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.Found {
		t.Fatalf("PK mission failed: %+v", resp)
	}
}

func TestPlanBaselines(t *testing.T) {
	s := server(t)
	for _, algo := range []string{"baseline1", "baseline2", "random"} {
		req := PlanRequest{
			Grid: "ops-area",
			Assets: []AssetSpec{
				{Source: 0, SensingRadius: 10, MaxSpeed: 3},
				{Source: 75, SensingRadius: 10, MaxSpeed: 3},
			},
			Destination: 140,
			Algorithm:   algo,
			Seed:        5,
			MaxSteps:    20000,
		}
		rec := do(t, s.Handler(), "POST", "/api/plan", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", algo, rec.Code, rec.Body.String())
		}
	}
}

func TestPlanLocalView(t *testing.T) {
	s := server(t)
	req := LocalPlanRequest{
		Grid:        "ops-area",
		Asset:       AssetSpec{Source: 3, SensingRadius: 10, MaxSpeed: 3},
		Destination: 120,
		Seed:        9,
	}
	rec := do(t, s.Handler(), "POST", "/api/plan/asset", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("local plan: %d %s", rec.Code, rec.Body.String())
	}
	var resp PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.Found || len(resp.Routes) != 1 {
		t.Fatalf("local view: %+v", resp)
	}
}

func TestPlanErrors(t *testing.T) {
	s := server(t)
	h := s.Handler()
	cases := []struct {
		name string
		body interface{}
		code int
	}{
		{"bad json", "{oops", http.StatusBadRequest},
		{"unknown grid", PlanRequest{Grid: "nowhere", Assets: []AssetSpec{{Source: 0, SensingRadius: 1, MaxSpeed: 1}}}, http.StatusNotFound},
		{"no assets", PlanRequest{Grid: "ops-area"}, http.StatusBadRequest},
		{"bad dest", PlanRequest{Grid: "ops-area", Assets: []AssetSpec{{Source: 0, SensingRadius: 1, MaxSpeed: 1}}, Destination: 9999}, http.StatusBadRequest},
		{"unknown algorithm", PlanRequest{Grid: "ops-area", Assets: []AssetSpec{{Source: 0, SensingRadius: 1, MaxSpeed: 1}}, Destination: 5, Algorithm: "quantum"}, http.StatusBadRequest},
		{"pk without region", PlanRequest{Grid: "ops-area", Assets: []AssetSpec{{Source: 0, SensingRadius: 1, MaxSpeed: 1}}, Destination: 5, Algorithm: "approx-pk"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := do(t, h, "POST", "/api/plan", c.body)
		if rec.Code != c.code {
			t.Errorf("%s: code %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body.String())
		}
	}
}

func TestEndToEndOverHTTP(t *testing.T) {
	// Full network round trip through an httptest server, as a TMPLAR
	// front-end would issue it.
	ts := httptest.NewServer(server(t).Handler())
	defer ts.Close()

	body, _ := json.Marshal(PlanRequest{
		Grid: "ops-area",
		Assets: []AssetSpec{
			{Source: 10, SensingRadius: 10, MaxSpeed: 3},
			{Source: 90, SensingRadius: 10, MaxSpeed: 3},
		},
		Destination: 140,
		Seed:        2,
	})
	resp, err := http.Post(fmt.Sprintf("%s/api/plan", ts.URL), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !pr.Found {
		t.Fatalf("mission failed over HTTP: %+v", pr)
	}
}

func TestConcurrentPlanning(t *testing.T) {
	// The service must serve concurrent planning requests safely: each
	// request builds its own planner and mission, sharing only the
	// immutable grid and model.
	s := server(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			body, _ := json.Marshal(PlanRequest{
				Grid: "ops-area",
				Assets: []AssetSpec{
					{Source: 0, SensingRadius: 10, MaxSpeed: 3},
					{Source: 75, SensingRadius: 10, MaxSpeed: 3},
				},
				Destination: 140,
				Seed:        seed,
			})
			resp, err := http.Post(ts.URL+"/api/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var pr PlanResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				errs <- err
				return
			}
			if !pr.Found {
				errs <- fmt.Errorf("seed %d: mission failed", seed)
				return
			}
			errs <- nil
		}(int64(w))
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent plan: %v", err)
		}
	}
}

func TestConcurrentGridUploadsAndPlans(t *testing.T) {
	// Uploading grids while planning must not race (the grids map is
	// mutex-guarded; run with -race in CI).
	s := server(t)
	h := s.Handler()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 5; k++ {
			g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
				Name: fmt.Sprintf("conc-%d", k), Nodes: 30, Edges: 60, MaxOutDegree: 6, Seed: int64(k),
			})
			if err != nil {
				t.Errorf("grid: %v", err)
				return
			}
			var buf bytes.Buffer
			if err := grid.Encode(&buf, g); err != nil {
				t.Errorf("encode: %v", err)
				return
			}
			rec := do(t, h, "POST", "/api/grids", buf.String())
			if rec.Code != http.StatusCreated {
				t.Errorf("upload %d: %d", k, rec.Code)
				return
			}
		}
	}()
	for k := 0; k < 5; k++ {
		rec := do(t, h, "GET", "/api/grids", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("list during uploads: %d", rec.Code)
		}
	}
	<-done
}

func TestPlanWithObstacles(t *testing.T) {
	s := server(t)
	g, _ := s.lookupGrid("ops-area")
	// Block a handful of nodes that are neither sources nor destination.
	var obstacles []int32
	for v := int32(20); v < 25; v++ {
		obstacles = append(obstacles, v)
	}
	req := PlanRequest{
		Grid: "ops-area",
		Assets: []AssetSpec{
			{Source: 0, SensingRadius: 10, MaxSpeed: 3},
			{Source: 75, SensingRadius: 10, MaxSpeed: 3},
		},
		Destination: 140,
		Obstacles:   obstacles,
		Seed:        5,
	}
	rec := do(t, s.Handler(), "POST", "/api/plan", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("plan with obstacles: %d %s", rec.Code, rec.Body.String())
	}
	var resp PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.Found {
		t.Fatalf("mission failed: %+v", resp)
	}
	blocked := map[int32]bool{}
	for _, v := range obstacles {
		blocked[v] = true
	}
	for _, route := range resp.Routes {
		for _, leg := range route.Legs {
			if blocked[leg.To] {
				t.Fatalf("route enters obstacle %d", leg.To)
			}
		}
	}
	// An obstacle on the destination is a bad request.
	bad := req
	bad.Obstacles = []int32{140}
	rec = do(t, s.Handler(), "POST", "/api/plan", bad)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("obstacle-on-destination: %d", rec.Code)
	}
	_ = g
}

func TestPlanWithWeatherAndRendezvous(t *testing.T) {
	s := server(t)
	g, _ := s.lookupGrid("ops-area")
	b := g.Bounds()
	base := PlanRequest{
		Grid: "ops-area",
		Assets: []AssetSpec{
			{Source: 0, SensingRadius: 10, MaxSpeed: 3},
			{Source: 75, SensingRadius: 10, MaxSpeed: 3},
		},
		Destination: 140,
		Seed:        5,
	}
	plan := func(req PlanRequest) PlanResponse {
		t.Helper()
		rec := do(t, s.Handler(), "POST", "/api/plan", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
		}
		var resp PlanResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp
	}
	calm := plan(base)

	stormy := base
	stormy.Weather = &WeatherSpec{
		Storms: []StormSpec{{
			CenterX: b.Center().X, CenterY: b.Center().Y,
			Radius: b.Width(), Slowdown: 0.5,
		}},
	}
	heavy := plan(stormy)
	if !calm.Found || !heavy.Found {
		t.Fatalf("missions failed: calm=%v heavy=%v", calm.Found, heavy.Found)
	}
	if heavy.TTotal <= calm.TTotal {
		t.Errorf("basin-wide storm should cost time: %v vs %v", heavy.TTotal, calm.TTotal)
	}

	rv := base
	rv.Rendezvous = true
	gathered := plan(rv)
	if !gathered.Found {
		t.Fatalf("rendezvous failed: %+v", gathered)
	}
	if gathered.Steps < calm.Steps {
		t.Errorf("rendezvous steps %d < discovery-only %d", gathered.Steps, calm.Steps)
	}
}

// derivedServer shares the expensively-trained model cache of the shared
// server but gets its own catalog, metrics registry, and Options, so limit
// and deadline tests neither retrain nor interfere with other tests.
func derivedServer(t testing.TB, opts Options) *Server {
	t.Helper()
	base := server(t)
	opts = opts.withDefaults()
	s := &Server{
		models:        base.models,
		opts:          opts,
		modelSource:   base.modelSource,
		modelArtifact: base.modelArtifact,
	}
	s.cat = catalog.New(catalog.Options{
		Capacity:  opts.CatalogCapacity,
		LoadModel: base.models.resolve,
		Metrics:   opts.Metrics,
	})
	g, ok := base.lookupGrid("ops-area")
	if !ok {
		t.Fatal("ops-area missing from shared server")
	}
	s.InstallGrid(g)
	return s
}

func opsPlanRequest() PlanRequest {
	return PlanRequest{
		Grid: "ops-area",
		Assets: []AssetSpec{
			{Source: 0, SensingRadius: 10, MaxSpeed: 3},
			{Source: 75, SensingRadius: 10, MaxSpeed: 3},
		},
		Destination: 140,
		Seed:        5,
	}
}

func TestPlanDeadlineExceededReturns503(t *testing.T) {
	s := derivedServer(t, Options{PlanTimeout: time.Nanosecond})
	start := time.Now()
	rec := do(t, s.Handler(), "POST", "/api/plan", opsPlanRequest())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline expiry took %v; want prompt abort", elapsed)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503 (%s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("503 body is not well-formed JSON: %v (%s)", err, rec.Body.String())
	}
	if !strings.Contains(e.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", e.Error)
	}
	if got := s.Metrics().CounterValue("tmplar_plan_errors_total", "status", "503"); got != 1 {
		t.Errorf("tmplar_plan_errors_total{status=503} = %d, want 1", got)
	}
}

func TestPlanDeadlineSufficientIsDeterministic(t *testing.T) {
	// The same request under a generous deadline must succeed and produce
	// the identical route on every attempt: the deadline machinery may not
	// perturb planning.
	s := derivedServer(t, Options{PlanTimeout: DefaultPlanTimeout})
	h := s.Handler()
	req := opsPlanRequest()
	var bodies []string
	for i := 0; i < 2; i++ {
		rec := do(t, h, "POST", "/api/plan", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("attempt %d: %d %s", i, rec.Code, rec.Body.String())
		}
		var resp PlanResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !resp.Found {
			t.Fatalf("attempt %d: mission failed", i)
		}
		routes, _ := json.Marshal(resp.Routes)
		bodies = append(bodies, string(routes))
	}
	if bodies[0] != bodies[1] {
		t.Errorf("same request, different routes:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

func TestPlanRequestDeadlineMSOnlyTightens(t *testing.T) {
	s := derivedServer(t, Options{PlanTimeout: 10 * time.Second})
	req := opsPlanRequest()
	req.DeadlineMS = 1 // 1ms: tightens the 10s server budget
	if d := s.deadlineFor(req); d != time.Millisecond {
		t.Errorf("deadlineFor = %v, want 1ms", d)
	}
	req.DeadlineMS = (time.Hour / time.Millisecond).Nanoseconds() // loosening is ignored
	if d := s.deadlineFor(req); d != 10*time.Second {
		t.Errorf("deadlineFor = %v, want the 10s server cap", d)
	}
}

func TestUploadGridTooLarge(t *testing.T) {
	s := derivedServer(t, Options{MaxGridBytes: 64})
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Name: "huge", Nodes: 30, Edges: 60, MaxOutDegree: 6, Seed: 2,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	var buf bytes.Buffer
	if err := grid.Encode(&buf, g); err != nil {
		t.Fatalf("encode: %v", err)
	}
	rec := do(t, s.Handler(), "POST", "/api/grids", buf.String())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: code %d, want 413 (%s)", rec.Code, rec.Body.String())
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if _, ok := s.lookupGrid("huge"); ok {
		t.Error("oversized grid was registered anyway")
	}
}

func TestPlanBodyTooLarge(t *testing.T) {
	s := derivedServer(t, Options{MaxPlanBytes: 32})
	body, _ := json.Marshal(opsPlanRequest())
	for _, path := range []string{"/api/plan", "/api/plan/asset"} {
		rec := do(t, s.Handler(), "POST", path, string(body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: code %d, want 413 (%s)", path, rec.Code, rec.Body.String())
		}
	}
}

func TestListGridsSortedByName(t *testing.T) {
	s := derivedServer(t, Options{})
	for _, name := range []string{"zulu", "alpha", "mike"} {
		g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
			Name: name, Nodes: 30, Edges: 60, MaxOutDegree: 6, Seed: 3,
		})
		if err != nil {
			t.Fatalf("grid: %v", err)
		}
		s.InstallGrid(g)
	}
	h := s.Handler()
	for attempt := 0; attempt < 5; attempt++ {
		rec := do(t, h, "GET", "/api/grids", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("list: %d", rec.Code)
		}
		var infos []gridInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
			t.Fatalf("decode: %v", err)
		}
		for i := 1; i < len(infos); i++ {
			if infos[i-1].Name > infos[i].Name {
				t.Fatalf("listing is not sorted: %q before %q", infos[i-1].Name, infos[i].Name)
			}
		}
	}
}

func TestMetricsEndpointReflectsOutcomes(t *testing.T) {
	// One deadline expiry plus one success must both be visible at
	// GET /metrics, in the Prometheus text and the JSON renderings. Two
	// servers share the registry: the tight one's nanosecond budget expires
	// deterministically, the other serves the success.
	reg := obs.New()
	tight := derivedServer(t, Options{PlanTimeout: time.Nanosecond, Metrics: reg})
	s := derivedServer(t, Options{Metrics: reg})
	h := s.Handler()

	if rec := do(t, tight.Handler(), "POST", "/api/plan", opsPlanRequest()); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("tight deadline: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/api/plan", opsPlanRequest()); rec.Code != http.StatusOK {
		t.Fatalf("plan: %d", rec.Code)
	}

	m := s.Metrics()
	if got := m.CounterValue("tmplar_plan_errors_total", "status", "503"); got != 1 {
		t.Errorf("plan_errors{503} = %d, want 1", got)
	}
	if got := m.CounterValue("tmplar_plan_completed_total", "algorithm", "approx"); got != 1 {
		t.Errorf("completed{approx} = %d, want 1", got)
	}
	if got := m.CounterValue("tmplar_http_requests_total", "endpoint", "/api/plan", "status", "503"); got != 1 {
		t.Errorf("http_requests{/api/plan,503} = %d, want 1", got)
	}
	if got := m.CounterValue("tmplar_http_requests_total", "endpoint", "/api/plan", "status", "200"); got != 1 {
		t.Errorf("http_requests{/api/plan,200} = %d, want 1", got)
	}

	rec := do(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`tmplar_plan_errors_total{status="503"} 1`,
		`tmplar_plan_completed_total{algorithm="approx"} 1`,
		"tmplar_plan_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}

	rec = do(t, h, "GET", "/metrics?format=json", nil)
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("json metrics Content-Type = %q", ct)
	}
	var snap struct {
		Counters []struct {
			Name  string            `json:"name"`
			Value uint64            `json:"value"`
			Label map[string]string `json:"labels"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON: %v (%s)", err, rec.Body.String())
	}
	seen := false
	for _, c := range snap.Counters {
		if c.Name == "tmplar_plan_errors_total" && c.Label["status"] == "503" && c.Value == 1 {
			seen = true
		}
	}
	if !seen {
		t.Errorf("JSON snapshot missing tmplar_plan_errors_total{status=503}=1: %s", rec.Body.String())
	}
}

func TestPanicRecoveryAnswers500(t *testing.T) {
	// A panicking handler must be converted into a JSON 500 and counted,
	// not crash the server.
	s := derivedServer(t, Options{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	h := s.instrument(recoverPanics(mux))
	rec := do(t, h, "GET", "/boom", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic: code %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("500 body is not JSON: %v (%s)", err, rec.Body.String())
	}
	// Unknown paths collapse to the bounded "other" route label.
	if got := s.Metrics().CounterValue("tmplar_http_requests_total", "endpoint", "other", "status", "500"); got != 1 {
		t.Errorf("http_requests{other,500} = %d, want 1", got)
	}
}
