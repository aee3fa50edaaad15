package catalog

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
)

// Entry is a resident (grid, model) planner pair. Obtained from Acquire;
// callers run inference through Do and must call Release exactly once.
type Entry struct {
	key      Key
	grid     *grid.Grid
	model    approx.Model
	ext      features.Extractor
	source   string
	artifact string
	loadedAt time.Time

	cat  *Catalog
	elem *list.Element

	// Guarded by cat.mu.
	refs    int
	hits    uint64
	evicted bool

	// closed is set under cat.mu and read by Do, which does not take
	// cat.mu.
	closed atomic.Bool

	mu      sync.Mutex // serializes Do
	planner *approx.Planner
}

// Key returns the entry's cache key.
func (e *Entry) Key() Key { return e.key }

// Grid returns the grid this entry serves.
func (e *Entry) Grid() *grid.Grid { return e.grid }

// Model returns the underlying inference model (for code paths that build
// their own planner variant, e.g. partial-knowledge wrappers).
func (e *Entry) Model() approx.Model { return e.model }

// Ext returns the feature extractor the model was trained with.
func (e *Entry) Ext() features.Extractor { return e.ext }

// Source reports model provenance ("trained" or "registry").
func (e *Entry) Source() string { return e.source }

// ArtifactID reports the registry content address, "" if unregistered.
func (e *Entry) ArtifactID() string { return e.artifact }

// Release drops the caller's reference. When the last reference to an
// already-evicted entry is dropped, the entry closes at that point (not
// whenever the garbage collector gets to it): later Do calls fail with
// ErrClosed.
func (e *Entry) Release() {
	e.cat.mu.Lock()
	e.cat.releaseLocked(e)
	e.cat.mu.Unlock()
}

// Closed reports whether the entry has closed. Only an evicted entry with no
// outstanding references closes.
func (e *Entry) Closed() bool { return e.closed.Load() }

// closeLocked marks the entry closed. Called with cat.mu held, only when
// refs == 0, so no Do can be running. It must not take e.mu: a fn passed to
// Do may itself release the entry.
func (e *Entry) closeLocked() { e.closed.Store(true) }

// Do runs fn on the entry's planner, freshly Reset to seed. Calls on one
// entry run one at a time, so fn may use the planner without further locking
// but must not retain it after returning. Do returns ErrClosed once the entry
// has closed, and ctx.Err() without running fn if ctx is done by the time
// the entry is free.
func (e *Entry) Do(ctx context.Context, seed int64, fn func(ctx context.Context, p *approx.Planner) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	e.planner.Reset(seed)
	return fn(ctx, e.planner)
}
