// Package catalog is the tenant-aware planner serving layer. It resolves
// (grid, model) pairs on demand, keeps an LRU-bounded cache of fully-loaded
// planner entries, deduplicates concurrent loads of the same key
// (single-flight: one training/registry load no matter how many requests
// race), and ref-counts entries so an in-use planner is never torn down
// mid-mission. Each entry owns one planner behind a mutex: Entry.Do calls on
// one entry run one at a time, so the planner's inference scratch is reused
// safely across missions.
//
// Determinism contract: every fn run through Entry.Do gets the entry's
// planner after Planner.Reset(seed). A plan computed through the catalog is
// therefore byte-identical to one computed on a freshly constructed planner
// with the same seed, however concurrent requests interleave.
package catalog

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/trace"
)

// Key identifies one cached planner: a grid name plus a model selector. The
// empty model selector means "the server's default model".
type Key struct {
	Grid  string `json:"grid"`
	Model string `json:"model"`
}

// NotFoundError reports an unknown grid or model selector. Handlers map it
// to a structured 404.
type NotFoundError struct {
	Kind string // "grid" or "model"
	Name string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("unknown %s %q", e.Kind, e.Name)
}

// ErrClosed is returned by Acquire and Entry.Do after the catalog (or the
// specific entry) has been shut down.
var ErrClosed = errors.New("catalog: closed")

// ModelArtifact is a resolved model: the inference weights, the feature
// extractor they were trained with, and provenance for observability.
type ModelArtifact struct {
	Model      approx.Model
	Ext        features.Extractor
	Source     string // e.g. "trained" or "registry"
	ArtifactID string // content-addressed registry ID, "" if unregistered
}

// ModelLoader resolves a model selector ("" = default, "seed:<n>",
// "name:<grid>", or a content-addressed artifact ID) to an artifact. It is
// invoked at most once per in-flight catalog key (single-flight); the loader
// may maintain its own selector-level cache to dedup across grids.
type ModelLoader func(ctx context.Context, selector string) (*ModelArtifact, error)

// Options configures a Catalog.
type Options struct {
	// Capacity bounds the number of resident planner entries (LRU beyond
	// it). Default 8.
	Capacity int
	// LoadModel resolves model selectors. Required.
	LoadModel ModelLoader
	// Metrics receives catalog counters/gauges/histograms; nil selects a
	// private registry. Stats reads the counters registered here, so
	// catalogs sharing one registry share their counts.
	Metrics *obs.Registry
	// Tracer, when set, emits catalog.load spans.
	Tracer *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 8
	}
	if o.Metrics == nil {
		o.Metrics = obs.New()
	}
	return o
}

// Stats is a point-in-time view of the catalog counters.
type Stats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Loads      uint64 `json:"loads"`
	LoadErrors uint64 `json:"load_errors"`
}

// Catalog is the tenant-aware planner cache. All methods are safe for
// concurrent use.
type Catalog struct {
	opts Options

	mu      sync.Mutex
	grids   map[string]*grid.Grid
	entries map[Key]*Entry
	lru     *list.List // of *Entry, front = MRU
	loading map[Key]*loadCall
	closed  bool

	hits       *obs.Counter
	misses     *obs.Counter
	evictions  *obs.Counter
	loads      *obs.Counter
	loadErrors *obs.Counter
	entriesG   *obs.Gauge
	loadHist   *obs.Histogram
}

// loadCall is one in-flight single-flight load. done is closed exactly once,
// after completed/ent/err are set under the catalog mutex.
type loadCall struct {
	done      chan struct{}
	waiters   int
	completed bool
	ent       *Entry
	err       error
}

// New builds a Catalog. Options.LoadModel must be set.
func New(opts Options) *Catalog {
	opts = opts.withDefaults()
	m := opts.Metrics
	m.SetHelp("catalog_hits_total", "Planner catalog cache hits.")
	m.SetHelp("catalog_misses_total", "Planner catalog cache misses (each waiter on a cold key counts once).")
	m.SetHelp("catalog_evictions_total", "Planner entries evicted by LRU pressure or grid replacement.")
	m.SetHelp("catalog_loads_total", "Completed planner loads (single-flight: one per cold key).")
	m.SetHelp("catalog_load_errors_total", "Planner loads that failed.")
	m.SetHelp("catalog_entries", "Resident planner entries.")
	m.SetHelp("catalog_load_seconds", "Planner load latency (model resolve + planner build).")
	return &Catalog{
		opts:       opts,
		grids:      make(map[string]*grid.Grid),
		entries:    make(map[Key]*Entry),
		lru:        list.New(),
		loading:    make(map[Key]*loadCall),
		hits:       m.Counter("catalog_hits_total"),
		misses:     m.Counter("catalog_misses_total"),
		evictions:  m.Counter("catalog_evictions_total"),
		loads:      m.Counter("catalog_loads_total"),
		loadErrors: m.Counter("catalog_load_errors_total"),
		entriesG:   m.Gauge("catalog_entries"),
		loadHist:   m.Histogram("catalog_load_seconds", obs.DefaultLatencyBuckets),
	}
}

// InstallGrid registers (or replaces) a named grid. Replacing a grid evicts
// every cached planner entry keyed to that name so stale (grid, planner)
// pairs cannot be served.
func (c *Catalog) InstallGrid(name string, g *grid.Grid) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, replacing := c.grids[name]
	c.grids[name] = g
	if !replacing {
		return
	}
	for key, ent := range c.entries {
		if key.Grid == name {
			c.evictEntryLocked(ent)
		}
	}
	c.setEntriesGaugeLocked()
}

// LookupGrid returns a registered grid by name.
func (c *Catalog) LookupGrid(name string) (*grid.Grid, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.grids[name]
	return g, ok
}

// NumGrids reports how many grids are registered.
func (c *Catalog) NumGrids() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.grids)
}

// Grids returns the registered grids, sorted by name.
func (c *Catalog) Grids() []*grid.Grid {
	c.mu.Lock()
	defer c.mu.Unlock()
	gs := make([]*grid.Grid, 0, len(c.grids))
	for _, g := range c.grids {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].Name() < gs[j].Name() })
	return gs
}

// Acquire resolves key to a loaded planner entry, loading it on a miss.
// Concurrent Acquires of the same cold key share one load. The returned
// entry is ref-counted: callers must Release it when done (typically after
// Entry.Do returns).
func (c *Catalog) Acquire(ctx context.Context, key Key) (*Entry, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	g, ok := c.grids[key.Grid]
	if !ok {
		c.mu.Unlock()
		return nil, &NotFoundError{Kind: "grid", Name: key.Grid}
	}
	if ent, ok := c.entries[key]; ok {
		ent.refs++
		ent.hits++
		c.lru.MoveToFront(ent.elem)
		c.hits.Inc()
		c.mu.Unlock()
		return ent, nil
	}
	c.misses.Inc()
	call, inFlight := c.loading[key]
	if !inFlight {
		call = &loadCall{done: make(chan struct{})}
		c.loading[key] = call
		// The load runs under context.Background(): a canceled requester
		// must not poison the load for the waiters that remain.
		go c.load(key, g, call)
	}
	call.waiters++
	c.mu.Unlock()

	select {
	case <-call.done:
		c.mu.Lock()
		ent, err := call.ent, call.err
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return ent, nil
	case <-ctx.Done():
		c.mu.Lock()
		if call.completed {
			// The load finished while we were giving up; drop the ref the
			// completion already assigned to us.
			if call.err == nil {
				c.releaseLocked(call.ent)
			}
		} else {
			call.waiters--
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// load resolves the model, builds the entry's planner, and publishes the
// entry (or the error) to every waiter. Runs in its own goroutine.
func (c *Catalog) load(key Key, g *grid.Grid, call *loadCall) {
	span := c.opts.Tracer.Start("catalog.load",
		trace.String("grid", key.Grid), trace.String("model", key.Model))
	start := time.Now()
	art, err := c.opts.LoadModel(context.Background(), key.Model)
	elapsed := time.Since(start)
	if span != nil {
		span.SetAttrs(trace.Bool("error", err != nil))
	}

	var ent *Entry
	if err == nil {
		ent = &Entry{
			key:      key,
			cat:      c,
			model:    art.Model,
			ext:      art.Ext,
			source:   art.Source,
			artifact: art.ArtifactID,
			loadedAt: time.Now(),
			planner:  approx.NewPlanner(art.Model, art.Ext, 0),
		}
	}

	c.mu.Lock()
	// The grid may have been replaced while we were loading; serve the
	// current one so the entry never pairs a fresh planner with a stale map.
	if err == nil {
		if cur, ok := c.grids[key.Grid]; ok {
			ent.grid = cur
		} else {
			ent.grid = g
		}
	}
	call.completed = true
	call.err = err
	if err == nil {
		call.ent = ent
		ent.refs = call.waiters
		ent.elem = c.lru.PushFront(ent)
		c.entries[key] = ent
		c.loads.Inc()
		var tid uint64
		if span != nil {
			tid = uint64(span.TraceID)
		}
		c.loadHist.ObserveExemplar(elapsed.Seconds(), tid, start.UnixNano())
		c.evictOverCapacityLocked()
	} else {
		c.loadErrors.Inc()
	}
	delete(c.loading, key)
	c.setEntriesGaugeLocked()
	c.mu.Unlock()
	close(call.done)
	span.End()
}

// evictOverCapacityLocked trims LRU-tail entries above capacity.
func (c *Catalog) evictOverCapacityLocked() {
	for c.lru.Len() > c.opts.Capacity {
		back := c.lru.Back()
		if back == nil {
			return
		}
		c.evictEntryLocked(back.Value.(*Entry))
	}
}

// evictEntryLocked removes ent from the resident set. If it is still
// referenced by in-flight Decides it stays fully usable until the last
// Release, which performs the deferred close.
func (c *Catalog) evictEntryLocked(ent *Entry) {
	if ent.evicted {
		return
	}
	c.lru.Remove(ent.elem)
	delete(c.entries, ent.key)
	ent.evicted = true
	c.evictions.Inc()
	if ent.refs == 0 {
		ent.closeLocked()
	}
}

func (c *Catalog) releaseLocked(ent *Entry) {
	ent.refs--
	if ent.refs == 0 && ent.evicted && !ent.closed.Load() {
		ent.closeLocked()
	}
}

func (c *Catalog) setEntriesGaugeLocked() {
	c.entriesG.Set(float64(len(c.entries)))
}

// Close evicts every entry and rejects future Acquires. Entries still
// referenced by in-flight work stay valid until their last Release.
func (c *Catalog) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, ent := range c.entries {
		c.evictEntryLocked(ent)
	}
	c.setEntriesGaugeLocked()
}

// Stats returns the counters.
func (c *Catalog) Stats() Stats {
	return Stats{
		Hits:       c.hits.Value(),
		Misses:     c.misses.Value(),
		Evictions:  c.evictions.Value(),
		Loads:      c.loads.Value(),
		LoadErrors: c.loadErrors.Value(),
	}
}

// EntrySnapshot is one resident entry in a Snapshot, MRU order.
type EntrySnapshot struct {
	Grid       string    `json:"grid"`
	Model      string    `json:"model"`
	Source     string    `json:"source"`
	Artifact   string    `json:"artifact,omitempty"`
	Refs       int       `json:"refs"`
	Hits       uint64    `json:"hits"`
	LoadedAt   time.Time `json:"loaded_at"`
	AgeSeconds float64   `json:"age_seconds"`
}

// Snapshot is the JSON document served by GET /debug/catalog.
type Snapshot struct {
	Capacity int             `json:"capacity"`
	Grids    []string        `json:"grids"`
	Entries  []EntrySnapshot `json:"entries"`
	Loading  []Key           `json:"loading"`
	Stats    Stats           `json:"stats"`
}

// Snapshot captures the catalog state for debugging.
func (c *Catalog) Snapshot() Snapshot {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{
		Capacity: c.opts.Capacity,
		Entries:  make([]EntrySnapshot, 0, c.lru.Len()),
		Loading:  make([]Key, 0, len(c.loading)),
		Stats:    c.Stats(),
	}
	snap.Grids = make([]string, 0, len(c.grids))
	for name := range c.grids {
		snap.Grids = append(snap.Grids, name)
	}
	sort.Strings(snap.Grids)
	for e := c.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*Entry)
		snap.Entries = append(snap.Entries, EntrySnapshot{
			Grid:       ent.key.Grid,
			Model:      ent.key.Model,
			Source:     ent.source,
			Artifact:   ent.artifact,
			Refs:       ent.refs,
			Hits:       ent.hits,
			LoadedAt:   ent.loadedAt,
			AgeSeconds: now.Sub(ent.loadedAt).Seconds(),
		})
	}
	for key := range c.loading {
		snap.Loading = append(snap.Loading, key)
	}
	sort.Slice(snap.Loading, func(i, j int) bool {
		if snap.Loading[i].Grid != snap.Loading[j].Grid {
			return snap.Loading[i].Grid < snap.Loading[j].Grid
		}
		return snap.Loading[i].Model < snap.Loading[j].Model
	})
	return snap
}
