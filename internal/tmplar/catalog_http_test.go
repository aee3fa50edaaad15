package tmplar

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/registry"
)

// catalogGrid builds a small deterministic grid for multi-tenant tests.
func catalogGrid(t *testing.T, name string, seed int64) *grid.Grid {
	t.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Name: name, Nodes: 120, Edges: 260, MaxOutDegree: 8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMultiTenantServing drives the acceptance scenario: one process serving
// two grids under two models each (the default plus a registry artifact),
// with per-request (grid, model_id) selection, all four tenants in flight
// concurrently. The catalog must hold one entry per pair and attribute the
// right artifact to each.
func TestMultiTenantServing(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the default model")
	}
	dir := t.TempDir()
	s, err := NewServerOpts(29, Options{ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Register a second artifact: the default weights re-registered under a
	// distinct training seed, so "seed:999" names a separate model.
	_, defaultArtifact := s.ModelSource()
	if defaultArtifact == "" {
		t.Fatal("default model not registered despite ModelDir")
	}
	store, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Get(defaultArtifact)
	if err != nil {
		t.Fatal(err)
	}
	model, err := registry.LoadLinear(store, man)
	if err != nil {
		t.Fatal(err)
	}
	second, err := registry.PutLinear(store, model, registry.Meta{
		Grid: catalogGrid(t, "alt-train", 31), Seed: 999,
	})
	if err != nil {
		t.Fatal(err)
	}

	s.InstallGrid(catalogGrid(t, "north-sector", 41))
	s.InstallGrid(catalogGrid(t, "south-sector", 43))
	h := s.Handler()

	tenants := []struct{ grid, model string }{
		{"north-sector", ""},
		{"north-sector", "seed:999"},
		{"south-sector", ""},
		{"south-sector", second.ID}, // exact content-addressed selection
	}
	var wg sync.WaitGroup
	errs := make([]string, len(tenants))
	for i, tn := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := PlanRequest{
				Grid:    tn.grid,
				ModelID: tn.model,
				Assets: []AssetSpec{
					{Source: 0, SensingRadius: 10, MaxSpeed: 3},
					{Source: 60, SensingRadius: 10, MaxSpeed: 3},
				},
				Destination: 110,
				Seed:        5,
			}
			rec := do(t, h, "POST", "/api/plan", req)
			if rec.Code != http.StatusOK {
				errs[i] = fmt.Sprintf("tenant %s/%q: %d %s", tn.grid, tn.model, rec.Code, rec.Body.String())
				return
			}
			var resp PlanResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errs[i] = fmt.Sprintf("tenant %s/%q: decode: %v", tn.grid, tn.model, err)
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}

	snap := s.Catalog().Snapshot()
	if len(snap.Entries) != len(tenants) {
		t.Fatalf("catalog holds %d entries, want %d: %+v", len(snap.Entries), len(tenants), snap.Entries)
	}
	byKey := make(map[string]string, len(snap.Entries))
	for _, e := range snap.Entries {
		byKey[e.Grid+"|"+e.Model] = e.Artifact
	}
	if got := byKey["north-sector|seed:999"]; got != second.ID {
		t.Errorf("north-sector/seed:999 artifact = %q, want %q", got, second.ID)
	}
	if got := byKey["south-sector|"+second.ID]; got != second.ID {
		t.Errorf("south-sector/%s artifact = %q, want the same ID", second.ID, got)
	}
	if got := byKey["north-sector|"]; got != defaultArtifact {
		t.Errorf("default tenant artifact = %q, want %q", got, defaultArtifact)
	}
}

// TestPlanUnknownModel404 pins the structured 404 for an unresolvable model
// selector on both the synchronous and async planes.
func TestPlanUnknownModel404(t *testing.T) {
	s := jobServer(t, 1, 8)
	h := s.Handler()

	req := opsPlanRequest()
	req.ModelID = "no-such-model"
	for _, path := range []string{"/api/plan", "/api/jobs/plan"} {
		rec := do(t, h, "POST", path, req)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s: code = %d, want 404 (%s)", path, rec.Code, rec.Body.String())
		}
		var body notFoundResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: 404 body not JSON: %v (%s)", path, err, rec.Body.String())
		}
		if body.Resource != "model" || body.Name != "no-such-model" {
			t.Errorf("%s: 404 body = %+v, want resource=model name=no-such-model", path, body)
		}
		if !strings.Contains(body.Error, "no-such-model") {
			t.Errorf("%s: error %q does not name the selector", path, body.Error)
		}
	}
}

// TestConcurrentPlansMatchSerial fires concurrent distinct-seed plans at one
// catalog entry and compares every response byte-for-byte against the same
// request served serially on a fresh server: sharing the entry's planner
// must be invisible in the output.
func TestConcurrentPlansMatchSerial(t *testing.T) {
	const n = 8
	reqs := make([]PlanRequest, n)
	for i := range reqs {
		reqs[i] = opsPlanRequest()
		reqs[i].Seed = int64(i + 1)
	}

	serial := derivedServer(t, Options{}).Handler()
	want := make([]string, n)
	for i, req := range reqs {
		rec := do(t, serial, "POST", "/api/plan", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("serial plan seed %d: %d %s", req.Seed, rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.String()
	}

	h := derivedServer(t, Options{}).Handler()
	bodies := make([]string, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := do(t, h, "POST", "/api/plan", reqs[i])
			codes[i], bodies[i] = rec.Code, rec.Body.String()
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("concurrent plan seed %d: %d %s", reqs[i].Seed, codes[i], bodies[i])
		}
		if bodies[i] != want[i] {
			t.Fatalf("concurrent plan seed %d differs from serial:\n%s\nvs\n%s", reqs[i].Seed, bodies[i], want[i])
		}
	}
}

// TestReadyzReportsCatalog checks the readiness payload carries the catalog
// health section.
func TestReadyzReportsCatalog(t *testing.T) {
	s := derivedServer(t, Options{})
	if rec := do(t, s.Handler(), "POST", "/api/plan", opsPlanRequest()); rec.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(t, s.Handler(), "GET", "/readyz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Catalog struct {
			Entries  int `json:"entries"`
			Capacity int `json:"capacity"`
			Loading  int `json:"loading"`
		} `json:"catalog"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Catalog.Entries < 1 || body.Catalog.Capacity < 1 {
		t.Errorf("readyz catalog = %+v, want a populated section", body.Catalog)
	}
}

// TestCatalogDebugShapeGolden pins the JSON shape of GET /debug/catalog
// with a resident entry, so dashboards reading it get schema-change signal.
func TestCatalogDebugShapeGolden(t *testing.T) {
	s := derivedServer(t, Options{})
	h := s.Handler()
	if rec := do(t, h, "POST", "/api/plan", opsPlanRequest()); rec.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(t, h, "GET", "/debug/catalog", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/catalog: %d", rec.Code)
	}
	checkShape(t, "catalog", rec.Body.Bytes())
}
