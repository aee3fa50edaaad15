package catalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
)

// fakeModel satisfies approx.Model without training; fine for every test
// that never runs Decide.
type fakeModel struct{ name string }

func (fakeModel) PredictTMM([]float64) float64 { return 0.5 }
func (fakeModel) PredictLM([]float64) float64  { return 0.5 }
func (fakeModel) Bytes() int                   { return 16 }
func (m fakeModel) Name() string               { return m.name }

func testGrid(t testing.TB, seed int64) *grid.Grid {
	t.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 40, Edges: 80, MaxOutDegree: 6, Seed: seed})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

// countingLoader returns a ModelLoader that counts invocations and
// optionally sleeps to widen race windows.
func countingLoader(calls *atomic.Int64, delay time.Duration) ModelLoader {
	return func(_ context.Context, selector string) (*ModelArtifact, error) {
		calls.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return &ModelArtifact{
			Model:  fakeModel{name: "fake:" + selector},
			Source: "fake",
		}, nil
	}
}

func TestSingleFlightDedup(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{Capacity: 4, LoadModel: countingLoader(&calls, 30*time.Millisecond)})
	c.InstallGrid("alpha", testGrid(t, 1))

	const K = 32
	entries := make([]*Entry, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
			if err != nil {
				t.Errorf("Acquire %d: %v", i, err)
				return
			}
			entries[i] = ent
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times for one cold key, want 1", got)
	}
	for i := 1; i < K; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("waiter %d got a different entry", i)
		}
	}
	st := c.Stats()
	if st.Loads != 1 || st.Misses != K {
		t.Fatalf("stats loads=%d misses=%d, want loads=1 misses=%d", st.Loads, st.Misses, K)
	}
	for _, ent := range entries {
		ent.Release()
	}
	if entries[0].Closed() {
		t.Fatal("resident entry closed after releases")
	}
}

func TestAcquireUnknownGridAndModel(t *testing.T) {
	c := New(Options{LoadModel: func(_ context.Context, sel string) (*ModelArtifact, error) {
		return nil, &NotFoundError{Kind: "model", Name: sel}
	}})
	c.InstallGrid("alpha", testGrid(t, 1))

	_, err := c.Acquire(context.Background(), Key{Grid: "nope"})
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Kind != "grid" {
		t.Fatalf("unknown grid: got %v, want grid NotFoundError", err)
	}
	_, err = c.Acquire(context.Background(), Key{Grid: "alpha", Model: "seed:404"})
	if !errors.As(err, &nf) || nf.Kind != "model" {
		t.Fatalf("unknown model: got %v, want model NotFoundError", err)
	}
	if st := c.Stats(); st.LoadErrors != 1 {
		t.Fatalf("load errors = %d, want 1", st.LoadErrors)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{Capacity: 2, LoadModel: countingLoader(&calls, 0)})
	for _, name := range []string{"a", "b", "c", "d"} {
		c.InstallGrid(name, testGrid(t, 1))
	}
	get := func(name string) *Entry {
		t.Helper()
		ent, err := c.Acquire(context.Background(), Key{Grid: name})
		if err != nil {
			t.Fatalf("Acquire %s: %v", name, err)
		}
		ent.Release()
		return ent
	}

	get("a")
	get("b")
	get("c") // evicts a (LRU)
	snap := c.Snapshot()
	if len(snap.Entries) != 2 || snap.Entries[0].Grid != "c" || snap.Entries[1].Grid != "b" {
		t.Fatalf("after a,b,c: entries %+v, want [c b]", snap.Entries)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}

	get("b") // hit: b becomes MRU
	get("d") // evicts c, not b
	snap = c.Snapshot()
	if len(snap.Entries) != 2 || snap.Entries[0].Grid != "d" || snap.Entries[1].Grid != "b" {
		t.Fatalf("after touch(b),d: entries %+v, want [d b]", snap.Entries)
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Hits != 1 || st.Loads != 4 {
		t.Fatalf("stats %+v, want evictions=2 hits=1 loads=4", st)
	}
}

// TestEvictedEntryStaysValidWhileInUse is the regression test for the
// eviction/in-use race: an entry evicted while a slow Decide holds a
// reference must stay fully usable until the last Release, and must close
// deterministically at that point.
func TestEvictedEntryStaysValidWhileInUse(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{Capacity: 1, LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("slow", testGrid(t, 1))
	c.InstallGrid("other", testGrid(t, 2))

	ent, err := c.Acquire(context.Background(), Key{Grid: "slow"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ent.Do(context.Background(), 7, func(_ context.Context, p *approx.Planner) error {
			close(started)
			<-release // simulate a slow Decide
			if p == nil {
				return errors.New("planner gone")
			}
			return nil
		})
	}()
	<-started

	// Force eviction of the in-use entry.
	if _, err := c.Acquire(context.Background(), Key{Grid: "other"}); err != nil {
		t.Fatalf("Acquire other: %v", err)
	}
	snap := c.Snapshot()
	for _, e := range snap.Entries {
		if e.Grid == "slow" {
			t.Fatal("slow entry still resident after capacity-1 eviction")
		}
	}
	if ent.Closed() {
		t.Fatal("evicted entry closed while a Decide is in flight")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight Do failed on evicted entry: %v", err)
	}
	if ent.Closed() {
		t.Fatal("entry closed before the holder released it")
	}
	ent.Release()
	if !ent.Closed() {
		t.Fatal("evicted entry did not close deterministically on last Release")
	}
	if err := ent.Do(context.Background(), 7, func(context.Context, *approx.Planner) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do on closed entry: err = %v, want ErrClosed", err)
	}
}

func TestInstallGridReplacementEvicts(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{Capacity: 4, LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("alpha", testGrid(t, 1))
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ent.Release()

	g2 := testGrid(t, 9)
	c.InstallGrid("alpha", g2)
	if n := len(c.Snapshot().Entries); n != 0 {
		t.Fatalf("%d entries resident after grid replacement, want 0", n)
	}
	ent2, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	defer ent2.Release()
	if ent2.Grid() != g2 {
		t.Fatal("entry after replacement serves the stale grid")
	}
	if calls.Load() != 2 {
		t.Fatalf("loads = %d, want 2 (reload after replacement)", calls.Load())
	}
}

func TestAcquireContextCanceled(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 50*time.Millisecond)})
	c.InstallGrid("alpha", testGrid(t, 1))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Acquire(ctx, Key{Grid: "alpha"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abandoned load still completes and stays resident for the next
	// caller, with a consistent refcount.
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("second Acquire: %v", err)
	}
	ent.Release()
	if calls.Load() != 1 {
		t.Fatalf("loads = %d, want 1 (canceled waiter joined in-flight load)", calls.Load())
	}
	if ent.Closed() {
		t.Fatal("resident entry closed")
	}
}

// trainedFixture is a real (model, extractor, scenario) triple for the
// determinism test; built once because training dominates.
type trainedFixture struct {
	model *approx.LinearModel
	ext   features.Extractor
	g     *grid.Grid
	sc    sim.Scenario
}

var (
	fixtureOnce sync.Once
	fixture     trainedFixture
	fixtureErr  error
)

func trained(t *testing.T) trainedFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		pipe, err := approx.NewPipeline(approx.TrainConfig{Seed: 11, SampleEpisodes: 3})
		if err != nil {
			fixtureErr = fmt.Errorf("pipeline: %w", err)
			return
		}
		model, _, err := approx.FitLinear(pipe.Data)
		if err != nil {
			fixtureErr = fmt.Errorf("fit: %w", err)
			return
		}
		g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 120, Edges: 260, MaxOutDegree: 7, Seed: 99})
		if err != nil {
			fixtureErr = fmt.Errorf("grid: %w", err)
			return
		}
		sc, err := approx.TrainingScenario(g, 2, 3, 1.2, 3)
		if err != nil {
			fixtureErr = fmt.Errorf("scenario: %w", err)
			return
		}
		fixture = trainedFixture{model: model, ext: pipe.Extractor, g: g, sc: sc}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func missionActions(t *testing.T, sc sim.Scenario, pl *approx.Planner) []sim.Action {
	t.Helper()
	var acts []sim.Action
	if _, err := sim.Run(sc, pl, sim.RunOptions{
		OnStep: func(_ *sim.Mission, step []sim.Action) { acts = append(acts, step...) },
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return acts
}

// TestConcurrentDoMatchesFreshPlanner pins the determinism contract: missions
// run concurrently through one entry's Do produce exactly the actions of a
// fresh planner built with the same seed.
func TestConcurrentDoMatchesFreshPlanner(t *testing.T) {
	fx := trained(t)
	const n = 16

	want := make([][]sim.Action, n)
	for i := range want {
		want[i] = missionActions(t, fx.sc, approx.NewPlanner(fx.model, fx.ext, int64(i+1)))
	}

	c := New(Options{
		LoadModel: func(context.Context, string) (*ModelArtifact, error) {
			return &ModelArtifact{Model: fx.model, Ext: fx.ext, Source: "test"}, nil
		},
	})
	c.InstallGrid("g", fx.g)

	got := make([][]sim.Action, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ent, err := c.Acquire(context.Background(), Key{Grid: "g"})
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			defer ent.Release()
			err = ent.Do(context.Background(), int64(i+1), func(_ context.Context, p *approx.Planner) error {
				got[i] = missionActions(t, fx.sc, p)
				return nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}(i)
	}
	wg.Wait()

	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("seed %d: %d actions, want %d", i+1, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("seed %d action %d: via Do %+v != fresh %+v", i+1, j, got[i][j], want[i][j])
			}
		}
	}
	if st := c.Stats(); st.Loads != 1 {
		t.Fatalf("loads = %d, want 1 (all missions on one entry)", st.Loads)
	}
}

// TestDoCanceledContextSkipsFn checks that Do returns the context's error
// without running fn when the context is already done.
func TestDoCanceledContextSkipsFn(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("alpha", testGrid(t, 1))
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer ent.Release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err = ent.Do(ctx, 1, func(context.Context, *approx.Planner) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("Do ran fn under a canceled context")
	}
}

func TestSnapshotShape(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{Capacity: 3, LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("alpha", testGrid(t, 1))
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha", Model: "seed:5"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer ent.Release()

	snap := c.Snapshot()
	if snap.Capacity != 3 || len(snap.Grids) != 1 || snap.Grids[0] != "alpha" {
		t.Fatalf("snapshot header wrong: %+v", snap)
	}
	if len(snap.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(snap.Entries))
	}
	e := snap.Entries[0]
	if e.Grid != "alpha" || e.Model != "seed:5" || e.Refs != 1 || e.Source != "fake" {
		t.Fatalf("entry snapshot wrong: %+v", e)
	}
}

func TestCloseRejectsAcquire(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("alpha", testGrid(t, 1))
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	c.Close()
	if _, err := c.Acquire(context.Background(), Key{Grid: "alpha"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close: %v, want ErrClosed", err)
	}
	if ent.Closed() {
		t.Fatal("held entry closed by Close before release")
	}
	ent.Release()
	if !ent.Closed() {
		t.Fatal("entry not closed after Close + final Release")
	}
}
