package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
)

// TestGridMemoSingleFlight has eight goroutines ask for one grid at once:
// the generator runs exactly once and every caller gets the same grid.
func TestGridMemoSingleFlight(t *testing.T) {
	m := newGridMemo()
	var calls atomic.Int32
	gen := func(cfg grid.SyntheticConfig) (*grid.Grid, error) {
		calls.Add(1)
		return grid.GenerateSynthetic(cfg)
	}
	cfg := grid.SyntheticConfig{Nodes: 60, Edges: 130, MaxOutDegree: 6, Seed: 3}
	const callers = 8
	got := make([]*grid.Grid, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			g, err := m.get(cfg, gen)
			if err != nil {
				t.Errorf("get: %v", err)
			}
			got[i] = g
		}(i)
	}
	start.Done()
	done.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("generator ran %d times, want 1", n)
	}
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("caller %d got grid %p, caller 0 got %p", i, g, got[0])
		}
	}
}

// TestGridMemoDistinctSeeds checks that configs differing only in seed get
// their own grids, and that a nil memo generates afresh on every call.
func TestGridMemoDistinctSeeds(t *testing.T) {
	m := newGridMemo()
	cfg := grid.SyntheticConfig{Nodes: 60, Edges: 130, MaxOutDegree: 6, Seed: 3}
	a, err := m.get(cfg, grid.GenerateSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 4
	b, err := m.get(cfg, grid.GenerateSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("seeds 3 and 4 share a grid (fingerprint %s)", a.Fingerprint())
	}

	var nilMemo *gridMemo
	x, err := nilMemo.get(cfg, grid.GenerateSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	y, err := nilMemo.get(cfg, grid.GenerateSynthetic)
	if err != nil {
		t.Fatal(err)
	}
	if x == y || x.Fingerprint() != y.Fingerprint() {
		t.Fatalf("nil memo: want two equal grids, got same pointer %v", x == y)
	}
}

// TestTable6MemoMatchesFreshGrids checks that the memoized Table 6 driver
// reproduces, cell for cell, Evaluate on grids generated afresh per run.
func TestTable6MemoMatchesFreshGrids(t *testing.T) {
	h := harness(t)
	base := smallParams()
	base.Runs = 2
	base.Episodes = 2
	rows, err := h.runTable6(context.Background(), []Table6Scenario{{Label: "tiny", Params: base}}, nil)
	if err != nil {
		t.Fatalf("runTable6: %v", err)
	}
	for i, algo := range AllAlgorithms {
		fresh, err := h.Evaluate(context.Background(), algo, base)
		if err != nil {
			t.Fatalf("Evaluate %s: %v", algo, err)
		}
		requireSameStats(t, algo, fresh, rows[i].Stats)
	}
}
