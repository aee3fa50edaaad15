// Package tmplar implements the deployment surface of Section 4.7: MaMoRL
// served as a back-end planning service speaking JSON, the integration
// contract of the Navy's TMPLAR tool (Tool for Multi-objective Planning and
// Asset Routing). The service offers the paper's two views: a global view
// planning all assets of a mission simultaneously, and a local view
// planning a single asset.
//
// The server is stdlib net/http only. Grids are registered once (uploaded
// as JSON or installed programmatically) and referenced by name in planning
// requests. Planning is tenant-aware: every request selects a (grid,
// model_id) pair, resolved through the planner catalog — an LRU-bounded
// cache of reusable planners, one per pair, with single-flight loading;
// missions on one pair run one at a time. The default model (empty
// model_id) is trained at startup
// exactly as in Section 4.2; alternative models resolve from the registry
// by artifact ID, "seed:<n>", or "name:<grid>".
package tmplar

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/baselines"
	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/jobs"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/partial"
	"github.com/routeplanning/mamorl/internal/prof"
	"github.com/routeplanning/mamorl/internal/registry"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/slo"
	"github.com/routeplanning/mamorl/internal/trace"
	"github.com/routeplanning/mamorl/internal/vessel"
	"github.com/routeplanning/mamorl/internal/weather"
)

// Default serving limits. They are deliberately generous: a grid JSON for
// the Atlantic mesh (~14.6k nodes) is a few MB, and a plan request is a few
// hundred bytes of mission spec.
const (
	DefaultPlanTimeout  = 30 * time.Second
	DefaultMaxGridBytes = 32 << 20 // 32 MB
	DefaultMaxPlanBytes = 1 << 20  // 1 MB
	DefaultTraceBuffer  = 256
)

// Options tunes the serving behavior. The zero value selects the defaults
// above; a nil Metrics registry gets a private one.
type Options struct {
	// PlanTimeout bounds the mission simulation of one planning request.
	// On expiry the request fails with HTTP 503 and a JSON error. <= 0
	// selects DefaultPlanTimeout.
	PlanTimeout time.Duration
	// MaxGridBytes caps POST /api/grids request bodies (413 beyond it);
	// MaxPlanBytes caps the plan endpoints. <= 0 selects the defaults.
	MaxGridBytes int64
	MaxPlanBytes int64
	// Logger receives one structured record per request (method, path,
	// status, latency, trace ID). nil disables request logging.
	Logger *slog.Logger
	// Metrics receives request/plan metrics; exposed at GET /metrics.
	Metrics *obs.Registry
	// TraceBuffer sizes the in-memory ring of recent request traces served
	// at GET /debug/traces. <= 0 selects DefaultTraceBuffer.
	TraceBuffer int
	// SampleInterval is the tick of the time-series sampler feeding
	// GET /debug/metrics/stream and /debug/dash; SampleCapacity is its
	// history ring size. <= 0 selects the obs package defaults.
	SampleInterval time.Duration
	SampleCapacity int
	// ModelDir, when non-empty, enables the persistent model registry at
	// that directory: the server warm-starts from the latest matching
	// artifact instead of retraining, and registers a freshly trained
	// model back into the store on a miss.
	ModelDir string
	// TrainWorkers shards the train-on-miss model fit across this many
	// goroutines. Fitted weights — and therefore registry artifact IDs —
	// are byte-identical at any value; it only shrinks cold-start latency.
	// <= 1 fits serially.
	TrainWorkers int
	// JobWorkers and JobQueueDepth size the async planning job queue
	// behind /api/jobs; <= 0 selects the jobs package defaults.
	JobWorkers    int
	JobQueueDepth int
	// JobTimeout bounds one async planning job's execution; <= 0 falls
	// back to PlanTimeout.
	JobTimeout time.Duration
	// JobRetention bounds how long terminal job records stay queryable
	// (0 selects the jobs package default, negative disables expiry);
	// JobMaxRecords caps how many are retained (0 selects the default,
	// negative uncaps). Without them, every completed job would stay in
	// memory for the life of the process.
	JobRetention  time.Duration
	JobMaxRecords int
	// JobWeights biases the weighted-fair dequeue across idempotency-key
	// namespaces (the prefix before the first '/'); unlisted namespaces
	// weigh 1. nil keeps every namespace equal.
	JobWeights map[string]int
	// MaxNodes / MaxSamples / MaxBytes bound one planning request's
	// resource budget: nodes expanded by planners, training samples
	// drawn, and approximate bytes allocated for mission state. A request
	// that exhausts its budget answers HTTP 429 with a structured body
	// naming the resource. <= 0 leaves that resource unlimited; all three
	// unset disables budgeting entirely (the nil-budget fast path).
	MaxNodes   int64
	MaxSamples int64
	MaxBytes   int64
	// SSEKeepAlive is the idle keep-alive cadence of the SSE endpoints
	// (/debug/metrics/stream and /api/jobs/{id}/events). 0 selects
	// obs.DefaultKeepAliveInterval; negative disables keep-alives.
	SSEKeepAlive time.Duration
	// SLOs are the service-level objectives evaluated on every sampler tick
	// and served at GET /debug/slo. nil selects slo.Defaults(); an empty
	// non-nil slice disables SLO evaluation entirely.
	SLOs []slo.Spec
	// ProfileInterval enables the continuous profiler: every interval a CPU
	// profile window plus heap/goroutine/mutex/block snapshots are folded
	// into hot-function tables served at GET /debug/prof, and SLO warn/
	// breach escalations trigger immediate out-of-schedule captures. <= 0
	// disables profiling entirely (the nil-profiler fast path).
	ProfileInterval time.Duration
	// ProfileWindow is the CPU profile length per capture; <= 0 selects the
	// prof package default (5s, clamped below ProfileInterval).
	ProfileWindow time.Duration
	// CatalogCapacity bounds the resident (grid, model) planner entries in
	// the serving catalog; LRU eviction beyond it. <= 0 selects the catalog
	// package default (8).
	CatalogCapacity int
}

func (o Options) withDefaults() Options {
	if o.PlanTimeout <= 0 {
		o.PlanTimeout = DefaultPlanTimeout
	}
	if o.MaxGridBytes <= 0 {
		o.MaxGridBytes = DefaultMaxGridBytes
	}
	if o.MaxPlanBytes <= 0 {
		o.MaxPlanBytes = DefaultMaxPlanBytes
	}
	if o.Metrics == nil {
		o.Metrics = obs.New()
	}
	if o.TraceBuffer <= 0 {
		o.TraceBuffer = DefaultTraceBuffer
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = o.PlanTimeout
	}
	if o.SLOs == nil {
		o.SLOs = slo.Defaults()
	}
	return o
}

// Model provenance values reported by ModelSource, /readyz and the
// startup log.
const (
	// ModelSourceTrained marks a model fitted by this process at startup.
	ModelSourceTrained = "trained"
	// ModelSourceRegistry marks a model warm-started from a registry
	// artifact, skipping the Section 4.2 training cost entirely.
	ModelSourceRegistry = "registry"
)

// Server is the TMPLAR-style planning service.
type Server struct {
	cat      *catalog.Catalog
	models   *modelCache
	opts     Options
	ring     *trace.Ring
	tracer   *trace.Tracer
	sampler  *obs.Sampler
	jobs     *jobs.Queue
	sloEng   *slo.Engine
	profiler *prof.Profiler
	// modelSource/modelArtifact record where the default model came from:
	// ("trained", artifact-id-or-empty) or ("registry", artifact-id).
	modelSource   string
	modelArtifact string
}

// NewServer trains the Approx-MaMoRL model (Section 4.2's pipeline) and
// returns a ready server with no grids registered and default Options.
func NewServer(seed int64) (*Server, error) {
	return NewServerOpts(seed, Options{})
}

// NewServerOpts builds the service. With Options.ModelDir set, the model
// is warm-started from the newest registry artifact matching this seed's
// training grid (train-and-register only on a miss); otherwise the
// Section 4.2 pipeline runs in-process as before.
func NewServerOpts(seed int64, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	registerHelp(opts.Metrics)
	ring := trace.NewRing(opts.TraceBuffer)
	tracer := trace.New(ring, trace.NewHistogramSink(opts.Metrics))

	models, err := newModelCache(seed, opts, tracer)
	if err != nil {
		return nil, err
	}
	// The default model resolves eagerly so startup keeps its contract:
	// train (or registry warm-start) before the server answers ready, and
	// fail construction outright when training cannot run.
	if _, err := models.resolve(context.Background(), ""); err != nil {
		return nil, err
	}
	cat := catalog.New(catalog.Options{
		Capacity:  opts.CatalogCapacity,
		LoadModel: models.resolve,
		Metrics:   opts.Metrics,
		Tracer:    tracer,
	})
	// The sampler folds Go runtime telemetry into the registry on every tick,
	// so the dashboard shows heap/GC/goroutine series alongside service ones.
	rc := obs.NewRuntimeCollector(opts.Metrics)
	onTick := []func(){rc.Collect}
	// The continuous profiler is built before the SLO engine so breach
	// transitions can trigger forensic captures. ProfileInterval <= 0
	// leaves it nil — the nil-receiver fast path makes every call below
	// free, so the wiring stays unconditional.
	var profiler *prof.Profiler
	if opts.ProfileInterval > 0 {
		profiler = prof.New(prof.Options{
			Interval: opts.ProfileInterval,
			Window:   opts.ProfileWindow,
			Metrics:  opts.Metrics,
			Logger:   opts.Logger,
		})
	}
	// The SLO engine shares the sampler's cadence: evaluating right after
	// the runtime collector means slo_state / slo_burn_rate land in the
	// same sample frame the dashboard streams. Building it here (after
	// training) baselines its windows past the training-time metrics.
	var sloEng *slo.Engine
	if len(opts.SLOs) > 0 {
		sloEng = slo.NewEngine(slo.EngineOptions{
			Registry: opts.Metrics,
			Specs:    opts.SLOs,
			Logger:   opts.Logger,
			Tracer:   tracer,
			// Escalations into warn/breach snapshot the CPU/heap state that
			// caused them; the capture ID lands in the /debug/slo report and
			// resolves at /debug/prof/{id}. TriggerCapture only registers a
			// pending capture and spawns the collection goroutine, so it is
			// safe under the engine lock.
			OnTransition: func(tr slo.Transition) string {
				if tr.To <= tr.From || tr.To < slo.StateWarn {
					return ""
				}
				return profiler.TriggerCapture("slo:" + tr.SLO + ":" + tr.To.String())
			},
		})
		onTick = append(onTick, sloEng.Tick)
	}
	sampler := obs.NewSampler(opts.Metrics, obs.SamplerOptions{
		Interval: opts.SampleInterval,
		Capacity: opts.SampleCapacity,
		OnTick:   onTick,
	})
	queue := jobs.New(jobs.Options{
		Workers:        opts.JobWorkers,
		QueueDepth:     opts.JobQueueDepth,
		DefaultTimeout: opts.JobTimeout,
		Retention:      opts.JobRetention,
		MaxTerminal:    opts.JobMaxRecords,
		Weights:        opts.JobWeights,
		Metrics:        opts.Metrics,
		Tracer:         tracer,
	})
	return &Server{
		cat:           cat,
		models:        models,
		opts:          opts,
		ring:          ring,
		tracer:        tracer,
		sampler:       sampler,
		jobs:          queue,
		sloEng:        sloEng,
		profiler:      profiler,
		modelSource:   models.defaultSource,
		modelArtifact: models.defaultArtifact,
	}, nil
}

// modelCache resolves model selectors to artifacts and memoizes the result
// per selector, so two grids sharing a model pay its registry load (or the
// training pipeline, for the default) once. The catalog's single-flight
// layer dedups per (grid, model) key; this layer dedups across grids.
type modelCache struct {
	seed   int64
	opts   Options
	tracer *trace.Tracer
	store  *registry.Store // nil without a ModelDir

	mu    sync.Mutex
	bySel map[string]*catalog.ModelArtifact
	// Default-model provenance, set when the "" selector first resolves.
	defaultSource   string
	defaultArtifact string
}

func newModelCache(seed int64, opts Options, tracer *trace.Tracer) (*modelCache, error) {
	mc := &modelCache{
		seed:   seed,
		opts:   opts,
		tracer: tracer,
		bySel:  make(map[string]*catalog.ModelArtifact),
	}
	if opts.ModelDir != "" {
		store, err := registry.Open(opts.ModelDir)
		if err != nil {
			return nil, fmt.Errorf("tmplar: model registry: %w", err)
		}
		mc.store = store
	}
	return mc, nil
}

// hasDefault reports whether the default model has been resolved (readiness
// signal: the server cannot plan without it).
func (mc *modelCache) hasDefault() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	_, ok := mc.bySel[""]
	return ok
}

// resolve maps a model selector to an artifact: "" is the default model
// (registry warm-start when possible, else the Section 4.2 training
// pipeline), "seed:<n>" and "name:<grid>" resolve the newest matching
// registry artifact, and anything else is an exact content-addressed
// artifact ID. Non-default selectors never train on a miss — an unknown
// selector is a client error (404), not a request to spend minutes fitting.
func (mc *modelCache) resolve(_ context.Context, selector string) (*catalog.ModelArtifact, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if art, ok := mc.bySel[selector]; ok {
		return art, nil
	}
	var (
		art *catalog.ModelArtifact
		err error
	)
	if selector == "" {
		art, err = mc.loadOrTrainDefault()
		if err == nil {
			mc.defaultSource = art.Source
			mc.defaultArtifact = art.ArtifactID
		}
	} else {
		art, err = mc.resolveRegistry(selector)
	}
	if err != nil {
		return nil, err
	}
	mc.bySel[selector] = art
	return art, nil
}

// validate checks that a selector is resolvable without loading weights:
// cheap enough for synchronous admission on the jobs plane.
func (mc *modelCache) validate(selector string) error {
	mc.mu.Lock()
	if _, ok := mc.bySel[selector]; ok {
		mc.mu.Unlock()
		return nil
	}
	mc.mu.Unlock()
	if selector == "" {
		return nil // the default trains on demand; always resolvable
	}
	_, err := mc.manifestFor(selector)
	return err
}

// resolveRegistry loads a non-default selector from the registry.
func (mc *modelCache) resolveRegistry(selector string) (*catalog.ModelArtifact, error) {
	man, err := mc.manifestFor(selector)
	if err != nil {
		return nil, err
	}
	model, err := registry.LoadLinear(mc.store, man)
	if err != nil {
		// A manifest whose blob is corrupt serves nothing; to the client
		// the selector does not name a usable model.
		return nil, &catalog.NotFoundError{Kind: "model", Name: selector}
	}
	return &catalog.ModelArtifact{
		Model:      model,
		Ext:        features.New(),
		Source:     ModelSourceRegistry,
		ArtifactID: man.ID,
	}, nil
}

// manifestFor resolves a non-default selector to its registry manifest.
func (mc *modelCache) manifestFor(selector string) (registry.Manifest, error) {
	notFound := &catalog.NotFoundError{Kind: "model", Name: selector}
	if mc.store == nil {
		return registry.Manifest{}, notFound
	}
	switch {
	case strings.HasPrefix(selector, "seed:"):
		n, err := strconv.ParseInt(strings.TrimPrefix(selector, "seed:"), 10, 64)
		if err != nil {
			return registry.Manifest{}, notFound
		}
		man, err := mc.store.ResolveMatch(func(m registry.Manifest) bool {
			return m.Kind == registry.KindLinreg && m.Seed == n
		})
		if err != nil {
			return registry.Manifest{}, notFound
		}
		return man, nil
	case strings.HasPrefix(selector, "name:"):
		name := strings.TrimPrefix(selector, "name:")
		man, err := mc.store.ResolveMatch(func(m registry.Manifest) bool {
			return m.Kind == registry.KindLinreg && m.Grid == name
		})
		if err != nil {
			return registry.Manifest{}, notFound
		}
		return man, nil
	default:
		man, err := mc.store.Get(selector)
		if err != nil {
			return registry.Manifest{}, notFound
		}
		return man, nil
	}
}

// loadOrTrainDefault resolves the default serving model: from the registry
// when ModelDir holds an artifact trained on this seed's exact training
// grid, else by running the training pipeline (and registering the result
// when a registry is configured). A corrupt or mismatched artifact falls
// through to training — the registry is a cache, never a correctness
// dependency.
func (mc *modelCache) loadOrTrainDefault() (*catalog.ModelArtifact, error) {
	opts := mc.opts
	if mc.store != nil {
		tg, err := approx.DefaultTrainingGrid(mc.seed)
		if err != nil {
			return nil, fmt.Errorf("tmplar: training grid: %w", err)
		}
		fp := tg.Fingerprint()
		man, err := mc.store.ResolveMatch(func(m registry.Manifest) bool {
			return m.Kind == registry.KindLinreg && m.Grid == tg.Name() &&
				m.GridFingerprint == fp && m.Seed == mc.seed
		})
		if err == nil {
			model, lerr := registry.LoadLinear(mc.store, man)
			if lerr == nil {
				return &catalog.ModelArtifact{
					Model: model, Ext: features.New(),
					Source: ModelSourceRegistry, ArtifactID: man.ID,
				}, nil
			}
			if opts.Logger != nil {
				opts.Logger.Warn("registry artifact unusable; retraining",
					"artifact", man.ID, "err", lerr)
			}
		}
	}

	cfg := approx.TrainConfig{Seed: mc.seed, Tracer: mc.tracer, FitWorkers: opts.TrainWorkers, Metrics: opts.Metrics}
	pipe, err := approx.NewPipeline(cfg)
	if err != nil {
		return nil, fmt.Errorf("tmplar: training pipeline: %w", err)
	}
	model, _, err := approx.FitLinearOpts(pipe.Data, nil, opts.TrainWorkers)
	if err != nil {
		return nil, fmt.Errorf("tmplar: model fit: %w", err)
	}
	artifact := ""
	if mc.store != nil {
		man, perr := registry.PutLinear(mc.store, model, registry.TrainMeta(pipe.Scenario.Grid, cfg))
		if perr != nil {
			if opts.Logger != nil {
				opts.Logger.Warn("could not register trained model", "err", perr)
			}
		} else {
			artifact = man.ID
		}
	}
	return &catalog.ModelArtifact{
		Model: model, Ext: pipe.Extractor,
		Source: ModelSourceTrained, ArtifactID: artifact,
	}, nil
}

// ModelSource reports where the default serving model came from: "registry"
// (and the artifact ID) for a warm start, "trained" for an in-process fit
// (the artifact ID is the newly registered one when a ModelDir is
// configured).
func (s *Server) ModelSource() (source, artifactID string) {
	return s.modelSource, s.modelArtifact
}

// JobQueue returns the async planning job queue (nil only for hand-built
// servers that bypassed NewServerOpts).
func (s *Server) JobQueue() *jobs.Queue { return s.jobs }

// DrainJobs stops accepting new jobs and waits for queued and running ones
// to finish, canceling whatever is still in flight when ctx expires. Call
// during graceful shutdown, after the HTTP listener stops.
func (s *Server) DrainJobs(ctx context.Context) error {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.Drain(ctx)
}

// Close releases the server's background resources (the job queue's
// workers and the planner catalog), aborting any jobs still in flight.
func (s *Server) Close() {
	if s.jobs != nil {
		s.jobs.Close()
	}
	if s.cat != nil {
		s.cat.Close()
	}
}

// registerHelp documents the server's metric names for the Prometheus
// exposition (# HELP lines).
func registerHelp(m *obs.Registry) {
	for name, help := range map[string]string{
		"tmplar_http_requests_total":   "HTTP requests served, by route pattern and status.",
		"tmplar_http_request_seconds":  "End-to-end HTTP request latency, by route pattern.",
		"tmplar_inflight_requests":     "Requests currently being served.",
		"tmplar_plan_seconds":          "Planning (mission simulation) latency per request, by route and outcome.",
		"tmplar_plan_completed_total":  "Planning requests answered 200, by algorithm.",
		"tmplar_plan_errors_total":     "Planning requests failed, by HTTP status (503: deadline expired or client gone).",
		"tmplar_plan_steps_total":      "Mission steps simulated across all completed plans.",
		"tmplar_grids_installed_total": "Grid registrations (uploads and programmatic installs).",
		"trace_span_seconds":           "Span durations from the request tracer, by span name.",
		"trace_spans_total":            "Spans completed by the request tracer, by span name.",
		"limits_charged_total":         "Budget units charged by planning requests, by resource.",
		"limits_exhausted_total":       "Planning requests aborted over budget, by resource.",
		"samples_skipped_total":        "Degenerate training samples dropped during collection.",
		"prof_captures_total":          "Profile captures taken, by trigger (scheduled/slo/manual).",
		"prof_capture_errors_total":    "Profile captures that finished with an error.",
		"prof_captures_retained":       "Profile captures currently held in the ring.",
	} {
		m.SetHelp(name, help)
	}
}

// Metrics returns the server's metrics registry (never nil).
func (s *Server) Metrics() *obs.Registry { return s.opts.Metrics }

// SLO returns the burn-rate engine behind /debug/slo, or nil when SLO
// evaluation is disabled (Options.SLOs set to an empty non-nil slice).
func (s *Server) SLO() *slo.Engine { return s.sloEng }

// Profiler returns the continuous profiler behind /debug/prof, or nil when
// profiling is disabled (Options.ProfileInterval <= 0). The caller decides
// whether the schedule runs: start Profiler().Run(ctx) in a goroutine for
// periodic captures (tmplard does this); SLO-triggered and manual captures
// work without Run.
func (s *Server) Profiler() *prof.Profiler { return s.profiler }

// Sampler returns the time-series sampler behind /debug/metrics/stream.
// The caller decides whether it ticks: run Sampler().Run(ctx) in a
// goroutine for live streaming, or drive Tick() manually in tests. May be
// nil only for hand-built servers that bypassed NewServerOpts.
func (s *Server) Sampler() *obs.Sampler { return s.sampler }

// PlanTimeout returns the effective per-request planning deadline.
func (s *Server) PlanTimeout() time.Duration { return s.opts.PlanTimeout }

// InstallGrid registers a grid under its name, replacing any previous one.
// Replacing a grid evicts its cached planner entries from the catalog.
func (s *Server) InstallGrid(g *grid.Grid) {
	s.cat.InstallGrid(g.Name(), g)
	s.opts.Metrics.Counter("tmplar_grids_installed_total").Inc()
}

// lookupGrid fetches a registered grid.
func (s *Server) lookupGrid(name string) (*grid.Grid, bool) {
	return s.cat.LookupGrid(name)
}

// Catalog returns the tenant-aware planner catalog behind /debug/catalog.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// Handler returns the HTTP routing table, wrapped in the serving middleware
// (panic recovery, request logging, per-endpoint metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.HandleFunc("GET /api/grids", s.handleListGrids)
	mux.HandleFunc("POST /api/grids", s.handleUploadGrid)
	mux.HandleFunc("POST /api/plan", s.handlePlanGlobal)
	mux.HandleFunc("POST /api/plan/asset", s.handlePlanLocal)
	mux.HandleFunc("POST /api/jobs/plan", s.handleJobSubmit)
	mux.HandleFunc("GET /api/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /api/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /api/jobs/{id}/events", s.handleJobEvents)
	mux.Handle("GET /metrics", obs.Handler(s.opts.Metrics))
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/metrics/stream", s.handleStream)
	mux.HandleFunc("GET /debug/catalog", s.handleCatalogDebug)
	mux.Handle("GET /debug/slo", s.sloEng.Handler())
	mux.Handle("GET /debug/prof", s.profiler.ListHandler())
	mux.Handle("GET /debug/prof/{id}", s.profiler.GetHandler())
	mux.Handle("GET /debug/dash", obs.DashHandlerAll("/debug/metrics/stream", "/debug/slo", "/debug/prof", "/debug/catalog"))
	return s.instrument(recoverPanics(mux))
}

// --- Middleware --------------------------------------------------------------

// statusRecorder captures the response status for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming responses (SSE on
// /debug/metrics/stream) keep working through the middleware wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recoverPanics converts a handler panic into a 500 JSON error instead of a
// torn-down connection. The broken-pipe sentinel http.ErrAbortHandler keeps
// its stdlib meaning and is re-raised.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(v)
				}
				// If the handler already started a response we can only drop
				// the connection; otherwise answer with a JSON 500.
				if rec.status == 0 {
					writeJSON(rec, http.StatusInternalServerError,
						errorResponse{fmt.Sprintf("internal error: %v", v)})
				}
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// routeLabel normalizes a request path into its route pattern for metric
// labels: parameterized routes collapse to their pattern ("/api/jobs/{id}")
// and unknown paths collapse to "other", so label cardinality stays bounded
// no matter what clients probe and SLO selectors can name routes exactly.
func routeLabel(path string) string {
	switch path {
	case "/healthz", "/readyz", "/version",
		"/api/grids", "/api/plan", "/api/plan/asset", "/api/jobs/plan",
		"/metrics", "/debug/traces", "/debug/metrics/stream", "/debug/slo",
		"/debug/prof", "/debug/dash", "/debug/catalog":
		return path
	}
	if rest, ok := strings.CutPrefix(path, "/api/jobs/"); ok && rest != "" {
		switch strings.Count(rest, "/") {
		case 0:
			return "/api/jobs/{id}"
		case 1:
			if strings.HasSuffix(rest, "/events") {
				return "/api/jobs/{id}/events"
			}
		}
	}
	if rest, ok := strings.CutPrefix(path, "/debug/prof/"); ok && rest != "" && !strings.Contains(rest, "/") {
		return "/debug/prof/{id}"
	}
	return "other"
}

// instrument opens the request span (whose trace ID is echoed back in the
// X-Trace-Id header and stamped on the request log record), tracks in-flight
// requests, and records request count by endpoint/status plus latency. The
// endpoint label is the route pattern, not the raw path; the raw path still
// reaches the log record and the request span.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		inflight := s.opts.Metrics.Gauge("tmplar_inflight_requests")
		inflight.Inc()
		defer inflight.Dec()

		endpoint := routeLabel(r.URL.Path)
		sp := s.startRequestSpan(r, endpoint)
		if sp != nil {
			// The trace ID reaches the client before the handler runs, so
			// even a timed-out request can be found in /debug/traces.
			w.Header().Set("X-Trace-Id", sp.TraceID.String())
			r = r.WithContext(trace.ContextWithSpan(r.Context(), sp))
		}

		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := time.Since(start)
		if sp != nil {
			sp.SetAttrs(trace.Int("status", int64(rec.status)))
			sp.End()
		}
		s.opts.Metrics.Counter("tmplar_http_requests_total",
			"endpoint", endpoint, "status", fmt.Sprint(rec.status)).Inc()
		h := s.opts.Metrics.Histogram("tmplar_http_request_seconds",
			obs.DefaultLatencyBuckets, "endpoint", endpoint)
		if sp != nil {
			// The exemplar ties the latency bucket back to a concrete trace
			// in /debug/traces — zero extra allocations on this path.
			h.ObserveExemplar(elapsed.Seconds(), uint64(sp.TraceID), start.UnixNano())
		} else {
			h.Observe(elapsed.Seconds())
		}
		if s.opts.Logger != nil {
			traceID := ""
			if sp != nil {
				traceID = sp.TraceID.String()
			}
			s.opts.Logger.Info("request",
				"method", r.Method, "path", r.URL.Path, "status", rec.status,
				"dur", elapsed, "trace", traceID)
		}
	})
}

// startRequestSpan opens the request span. A well-formed, non-zero incoming
// X-Trace-Id header is honored so a caller's trace ID carries through to
// /debug/traces and the mission spans; a malformed or absent header simply
// mints a fresh ID — never an error, since the header is advisory.
func (s *Server) startRequestSpan(r *http.Request, endpoint string) *trace.Span {
	attrs := []trace.Attr{
		trace.String("method", r.Method), trace.String("endpoint", endpoint),
	}
	if hdr := r.Header.Get("X-Trace-Id"); hdr != "" {
		if id, err := trace.ParseTraceID(hdr); err == nil && id != 0 {
			return s.tracer.StartTrace(id, "request", attrs...)
		}
	}
	return s.tracer.Start("request", attrs...)
}

// handleTraces serves the ring of recent completed spans as JSON, newest
// last. ?n= (alias ?limit=) keeps only the newest n spans; ?name= keeps
// spans whose name or trace ID equals the value, so both "plan" and an
// exemplar's hex trace ID from /debug/slo resolve directly; ?since=
// (unix nanoseconds) keeps spans that started at or after the instant, so
// breach forensics can scope traces to a profile capture window.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	spans := s.ring.Snapshot()
	q := r.URL.Query()
	if name := q.Get("name"); name != "" {
		kept := spans[:0]
		for _, sp := range spans {
			if sp.Name == name || sp.TraceID.String() == name {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	if since := q.Get("since"); since != "" {
		ns, err := strconv.ParseInt(since, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{"since must be unix nanoseconds"})
			return
		}
		kept := spans[:0]
		for _, sp := range spans {
			if sp.Start.UnixNano() >= ns {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	limit := q.Get("n")
	if limit == "" {
		limit = q.Get("limit")
	}
	if limit != "" {
		n, err := strconv.Atoi(limit)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{"n must be a non-negative integer"})
			return
		}
		if n < len(spans) {
			spans = spans[len(spans)-n:]
		}
	}
	writeJSON(w, http.StatusOK, spans)
}

// --- Wire types --------------------------------------------------------------

// AssetSpec describes one asset in a planning request.
type AssetSpec struct {
	Source        int32   `json:"source"`
	SensingRadius float64 `json:"sensing_radius"`
	MaxSpeed      int     `json:"max_speed"`
}

// RegionSpec is the partial-knowledge bounding box.
type RegionSpec struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// PlanRequest is the global-view request body.
type PlanRequest struct {
	Grid string `json:"grid"`
	// ModelID selects the serving model: empty for the server default, a
	// content-addressed registry artifact ID, "seed:<n>" for the newest
	// artifact trained with that seed, or "name:<grid>" for the newest
	// artifact trained on that grid. Unknown selectors answer 404.
	ModelID     string      `json:"model_id,omitempty"`
	Assets      []AssetSpec `json:"assets"`
	Destination int32       `json:"destination"`
	CommEvery   int         `json:"comm_every"`
	// Algorithm: "approx" (default), "approx-pk" (requires region),
	// "baseline1", "baseline2", "random".
	Algorithm string      `json:"algorithm"`
	Region    *RegionSpec `json:"region,omitempty"`
	// Obstacles lists node IDs no asset may enter (reefs, exclusion zones).
	Obstacles []int32 `json:"obstacles,omitempty"`
	// Weather optionally subjects the mission to currents and storms.
	Weather *WeatherSpec `json:"weather,omitempty"`
	// Rendezvous keeps the mission running until the whole team gathers at
	// the discovered destination.
	Rendezvous bool  `json:"rendezvous,omitempty"`
	Seed       int64 `json:"seed"`
	MaxSteps   int   `json:"max_steps"`
	// DeadlineMS optionally tightens this request's planning deadline, in
	// milliseconds. It can only lower the server's configured PlanTimeout,
	// never raise it; 0 uses the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// WeatherSpec is the wire form of an environmental field: an optional gyre
// plus any number of storm cells.
type WeatherSpec struct {
	Gyre   *GyreSpec   `json:"gyre,omitempty"`
	Storms []StormSpec `json:"storms,omitempty"`
}

// GyreSpec mirrors weather.Gyre.
type GyreSpec struct {
	CenterX   float64 `json:"center_x"`
	CenterY   float64 `json:"center_y"`
	Radius    float64 `json:"radius"`
	Strength  float64 `json:"strength"`
	Clockwise bool    `json:"clockwise,omitempty"`
}

// StormSpec mirrors weather.StormCell.
type StormSpec struct {
	CenterX  float64 `json:"center_x"`
	CenterY  float64 `json:"center_y"`
	DriftX   float64 `json:"drift_x,omitempty"`
	DriftY   float64 `json:"drift_y,omitempty"`
	Radius   float64 `json:"radius"`
	Slowdown float64 `json:"slowdown"`
}

// field converts the wire form into a weather.Field (nil when empty).
func (w *WeatherSpec) field() weather.Field {
	if w == nil {
		return nil
	}
	var fields weather.Compose
	if w.Gyre != nil {
		fields = append(fields, weather.Gyre{
			Center:    geo.Point{X: w.Gyre.CenterX, Y: w.Gyre.CenterY},
			Radius:    w.Gyre.Radius,
			Strength:  w.Gyre.Strength,
			Clockwise: w.Gyre.Clockwise,
		})
	}
	if len(w.Storms) > 0 {
		storms := weather.Storms{}
		for _, s := range w.Storms {
			storms.Cells = append(storms.Cells, weather.StormCell{
				Center:   geo.Point{X: s.CenterX, Y: s.CenterY},
				Drift:    geo.Point{X: s.DriftX, Y: s.DriftY},
				Radius:   s.Radius,
				Slowdown: s.Slowdown,
			})
		}
		fields = append(fields, storms)
	}
	if len(fields) == 0 {
		return nil
	}
	return fields
}

// RouteLeg is one movement of one asset.
type RouteLeg struct {
	From  int32   `json:"from"`
	To    int32   `json:"to"`
	Speed int     `json:"speed"`
	Time  float64 `json:"time"`
	Fuel  float64 `json:"fuel"`
	Wait  bool    `json:"wait,omitempty"`
}

// AssetRoute is one asset's full plan.
type AssetRoute struct {
	Asset int        `json:"asset"`
	Legs  []RouteLeg `json:"legs"`
	Time  float64    `json:"time"`
	Fuel  float64    `json:"fuel"`
}

// PlanResponse is the planning result (both views).
type PlanResponse struct {
	Found      bool         `json:"found"`
	FoundBy    int          `json:"found_by"`
	Steps      int          `json:"steps"`
	TTotal     float64      `json:"t_total"`
	FTotal     float64      `json:"f_total"`
	Collisions int          `json:"collisions"`
	Routes     []AssetRoute `json:"routes"`
}

// LocalPlanRequest is the local-view request: plan one asset from its
// current position (the global mission context is unknown to the view).
type LocalPlanRequest struct {
	Grid        string    `json:"grid"`
	ModelID     string    `json:"model_id,omitempty"`
	Asset       AssetSpec `json:"asset"`
	Destination int32     `json:"destination"`
	Seed        int64     `json:"seed"`
	MaxSteps    int       `json:"max_steps"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- Handlers ----------------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe, distinct from /healthz liveness: the
// process can be alive (answering /healthz) while still useless for planning
// because no grid has been registered yet or the model is absent. Load
// balancers should gate traffic on this endpoint.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	grids := s.cat.NumGrids()
	modelLoaded := s.models != nil && s.models.hasDefault()
	body := map[string]any{
		"status": "ready", "grids": grids, "model_loaded": modelLoaded,
	}
	// Catalog health: how many planner entries are resident vs. the LRU
	// bound, and how many loads are in flight right now.
	snap := s.cat.Snapshot()
	body["catalog"] = map[string]any{
		"entries":  len(snap.Entries),
		"capacity": snap.Capacity,
		"loading":  len(snap.Loading),
	}
	// Provenance: a registry warm start means the server was ready the
	// moment it came up, without paying the training cost; operators can
	// see which artifact is serving.
	if s.modelSource != "" {
		body["model_source"] = s.modelSource
	}
	if s.modelArtifact != "" {
		body["model_artifact"] = s.modelArtifact
	}
	if !modelLoaded || grids == 0 {
		body["status"] = "not ready"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleStream serves the sampler's history and live samples over SSE.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"metrics sampler not available"})
		return
	}
	obs.StreamHandlerOpts(s.sampler, s.opts.SSEKeepAlive).ServeHTTP(w, r)
}

// gridInfo summarizes a registered grid.
type gridInfo struct {
	Name         string `json:"name"`
	Nodes        int    `json:"nodes"`
	Edges        int    `json:"edges"`
	MaxOutDegree int    `json:"max_out_degree"`
	Metric       string `json:"metric"`
}

func (s *Server) handleListGrids(w http.ResponseWriter, _ *http.Request) {
	gs := s.cat.Grids() // already name-sorted
	infos := make([]gridInfo, 0, len(gs))
	for _, g := range gs {
		infos = append(infos, gridInfo{
			Name:         g.Name(),
			Nodes:        g.NumNodes(),
			Edges:        g.NumEdges(),
			MaxOutDegree: g.MaxOutDegree(),
			Metric:       g.Metric().String(),
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleCatalogDebug serves the planner catalog's resident entries,
// in-flight loads, and hit/miss/eviction counters as JSON.
func (s *Server) handleCatalogDebug(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cat.Snapshot())
}

// tooLarge reports whether err came from http.MaxBytesReader tripping.
func tooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

func (s *Server) handleUploadGrid(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxGridBytes)
	g, err := grid.Decode(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if tooLarge(err) {
			status = http.StatusRequestEntityTooLarge
			err = fmt.Errorf("grid upload exceeds %d bytes", s.opts.MaxGridBytes)
		}
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	if g.Name() == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{"grid must carry a name"})
		return
	}
	s.InstallGrid(g)
	writeJSON(w, http.StatusCreated, gridInfo{
		Name: g.Name(), Nodes: g.NumNodes(), Edges: g.NumEdges(),
		MaxOutDegree: g.MaxOutDegree(), Metric: g.Metric().String(),
	})
}

// decodePlanBody decodes a plan endpoint's JSON body into v, capped at
// MaxPlanBytes. On failure it answers 413 (body too large) or 400 itself
// and returns false.
func (s *Server) decodePlanBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxPlanBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		status := http.StatusBadRequest
		if tooLarge(err) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{"invalid JSON: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handlePlanGlobal(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if s.decodePlanBody(w, r, &req) {
		s.servePlan(w, r, req)
	}
}

func (s *Server) handlePlanLocal(w http.ResponseWriter, r *http.Request) {
	var req LocalPlanRequest
	if !s.decodePlanBody(w, r, &req) {
		return
	}
	s.servePlan(w, r, PlanRequest{
		Grid:        req.Grid,
		ModelID:     req.ModelID,
		Assets:      []AssetSpec{req.Asset},
		Destination: req.Destination,
		CommEvery:   0,
		Algorithm:   "approx",
		Seed:        req.Seed,
		MaxSteps:    req.MaxSteps,
	})
}

// deadlineFor resolves the effective planning deadline of one request: the
// server's PlanTimeout, optionally tightened (never loosened) by the
// request's deadline_ms.
func (s *Server) deadlineFor(req PlanRequest) time.Duration {
	d := s.opts.PlanTimeout
	if req.DeadlineMS > 0 {
		if rd := time.Duration(req.DeadlineMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return d
}

// newBudget builds one request's resource budget from the configured
// ceilings, or nil (the zero-cost path) when no ceiling is set. Budgets
// are strictly per-request: each call returns a fresh accounting object,
// so one runaway request cannot starve the next.
func (s *Server) newBudget() *limits.Budget {
	if s.opts.MaxNodes <= 0 && s.opts.MaxSamples <= 0 && s.opts.MaxBytes <= 0 {
		return nil
	}
	return limits.New(limits.Limits{
		Nodes:   s.opts.MaxNodes,
		Samples: s.opts.MaxSamples,
		Bytes:   s.opts.MaxBytes,
	})
}

// overBudgetResponse is the structured 429 body of a budget-exhausted
// request: which resource ran out, its ceiling, and how much was used at
// the abort (Used may exceed Limit — charges are cooperative, the loop
// aborts at the next epoch boundary).
type overBudgetResponse struct {
	Error    string `json:"error"`
	Resource string `json:"resource"`
	Limit    int64  `json:"limit"`
	Used     int64  `json:"used"`
}

// notFoundResponse is the structured 404 body for an unknown grid or model
// selector: which resource kind was missing and the name the client sent.
type notFoundResponse struct {
	Error    string `json:"error"`
	Resource string `json:"resource"`
	Name     string `json:"name"`
}

// badRequestError marks a planning error the client must fix: planFailure
// answers it 400.
type badRequestError struct{ error }

// planFailure maps a planning error to its HTTP status and JSON body. It is
// the one table both planning planes answer from — the plan endpoints, job
// admission and the job poll — so one cause gets one status whichever plane
// served it. Errors no case names (catalog.ErrClosed, a simulator fault)
// are the server's fault and answer 500.
func planFailure(err error) (status int, body any) {
	var (
		br badRequestError
		nf *catalog.NotFoundError
		ob *limits.ErrOverBudget
	)
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest, errorResponse{err.Error()}
	case errors.As(err, &nf):
		return http.StatusNotFound, notFoundResponse{Error: err.Error(), Resource: nf.Kind, Name: nf.Name}
	case errors.As(err, &ob):
		return http.StatusTooManyRequests, overBudgetResponse{
			Error:    err.Error(),
			Resource: ob.Resource.String(),
			Limit:    ob.Limit,
			Used:     ob.Used,
		}
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The service is alive; this request's mission was too heavy for its
		// deadline, or its client went away.
		return http.StatusServiceUnavailable, errorResponse{err.Error()}
	default:
		return http.StatusInternalServerError, errorResponse{err.Error()}
	}
}

// recordBudget folds one request's budget usage into the shared metrics
// and, on exhaustion, stamps a budget.exhausted event on the plan span so
// traces show which resource ran out and by how much. The tenant label (the
// request's grid) attributes consumption per tenant; grid names are
// operator-controlled, so the label cardinality stays bounded.
func (s *Server) recordBudget(sp *trace.Span, b *limits.Budget, err error, tenant string) {
	if b == nil {
		return
	}
	m := s.opts.Metrics
	for _, r := range limits.Resources() {
		if u := b.Used(r); u > 0 {
			m.Counter("limits_charged_total", "resource", r.String(), "tenant", tenant).Add(uint64(u))
		}
	}
	var ob *limits.ErrOverBudget
	if errors.As(err, &ob) {
		m.Counter("limits_exhausted_total", "resource", ob.Resource.String(), "tenant", tenant).Inc()
		if sp.Enabled() {
			sp.Event("budget.exhausted",
				trace.String("resource", ob.Resource.String()),
				trace.Int("limit", ob.Limit),
				trace.Int("used", ob.Used))
		}
	}
}

// servePlan runs a plan under the request deadline and writes the outcome,
// recording plan metrics either way. A failure answers planFailure's status
// and body; a deadline expiry or client disconnect (503) names the deadline
// in its body.
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, req PlanRequest) {
	deadline := s.deadlineFor(req)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	start := time.Now()
	resp, err := s.plan(ctx, req, s.newBudget())
	elapsed := time.Since(start)

	m := s.opts.Metrics
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	// The outcome label lets availability SLOs pick a failed request's
	// latency sample as their exemplar; the exemplar itself carries the
	// request trace ID so /debug/slo links straight into /debug/traces.
	h := m.Histogram("tmplar_plan_seconds", obs.DefaultLatencyBuckets,
		"endpoint", routeLabel(r.URL.Path), "outcome", outcome)
	if sp := trace.SpanFromContext(r.Context()); sp != nil {
		h.ObserveExemplar(elapsed.Seconds(), uint64(sp.TraceID), start.UnixNano())
	} else {
		h.Observe(elapsed.Seconds())
	}
	if err != nil {
		// ctx.Err() stays nil until the deadline or the client ends ctx, so
		// this matches only this request's own context error.
		if errors.Is(err, ctx.Err()) {
			err = fmt.Errorf("planning exceeded the %v deadline: %w", deadline, err)
		}
		status, body := planFailure(err)
		m.Counter("tmplar_plan_errors_total", "status", fmt.Sprint(status)).Inc()
		writeJSON(w, status, body)
		return
	}
	m.Counter("tmplar_plan_completed_total", "algorithm", algoLabel(req.Algorithm)).Inc()
	m.Counter("tmplar_plan_steps_total").Add(uint64(resp.Steps))
	writeJSON(w, http.StatusOK, resp)
}

// algoLabel normalizes the algorithm metric label ("" means the default).
func algoLabel(algo string) string {
	if algo == "" {
		return "approx"
	}
	return algo
}

// check rejects request shapes no plan can serve, without touching the
// grid or the model. Both planes call it, so job admission refuses what a
// synchronous plan would, instead of queueing a job that can only fail.
func (req PlanRequest) check() error {
	if len(req.Assets) == 0 {
		return badRequestError{errors.New("no assets")}
	}
	switch req.Algorithm {
	case "", "approx", "baseline1", "baseline2", "random":
	case "approx-pk":
		if req.Region == nil {
			return badRequestError{errors.New("approx-pk requires a region")}
		}
	default:
		return badRequestError{fmt.Errorf("unknown algorithm %q", req.Algorithm)}
	}
	return nil
}

// plan executes a mission for a request, aborting when ctx expires or the
// request budget is exhausted. Errors the client must fix are
// badRequestErrors; planFailure maps every error to its HTTP answer. The
// mission span parents under the request span carried by ctx, so one trace
// ID covers the request from HTTP edge to simulation. budget may be nil
// (unlimited); it is shared by the planner and the mission loop so a
// planner-latched violation aborts the run at the next epoch.
//
// The (grid, model_id) pair resolves through the planner catalog: the entry
// is ref-counted for the duration of the request, and approx missions run
// on the entry's planner through Entry.Do.
func (s *Server) plan(ctx context.Context, req PlanRequest, budget *limits.Budget) (_ *PlanResponse, err error) {
	sp := trace.SpanFromContext(ctx).Child("plan",
		trace.String("grid", req.Grid),
		trace.String("model", req.ModelID),
		trace.String("algorithm", algoLabel(req.Algorithm)),
		trace.Int("assets", int64(len(req.Assets))))
	defer func() {
		if err != nil && sp.Enabled() {
			sp.SetAttrs(trace.String("error", err.Error()))
		}
		sp.End()
	}()

	ent, err := s.cat.Acquire(ctx, catalog.Key{Grid: req.Grid, Model: req.ModelID})
	if err != nil {
		return nil, err
	}
	defer ent.Release()
	// After Acquire, so an unknown grid or model answers 404 before any 400.
	if err := req.check(); err != nil {
		return nil, err
	}
	g := ent.Grid()
	team := make(vessel.Team, len(req.Assets))
	for i, a := range req.Assets {
		team[i] = vessel.Asset{
			ID:            i,
			SensingRadius: a.SensingRadius,
			MaxSpeed:      a.MaxSpeed,
			Source:        grid.NodeID(a.Source),
		}
	}
	commEvery := req.CommEvery
	if commEvery == 0 {
		commEvery = 3
	}
	sc := sim.Scenario{
		Grid:      g,
		Team:      team,
		Dest:      grid.NodeID(req.Destination),
		CommEvery: commEvery,
		MaxSteps:  req.MaxSteps,
	}
	for _, v := range req.Obstacles {
		sc.Obstacles = append(sc.Obstacles, grid.NodeID(v))
	}
	sc.Weather = req.Weather.field()
	sc.Rendezvous = req.Rendezvous
	if err := sc.Validate(); err != nil {
		return nil, badRequestError{err}
	}

	// runMission simulates sc under planner and folds the step stream into
	// per-asset routes. Shared by the direct (baseline) path and the
	// catalog (approx) path.
	runMission := func(ctx context.Context, planner sim.Planner, collision sim.CollisionPolicy) (*PlanResponse, error) {
		routes := make([]AssetRoute, len(team))
		for i := range routes {
			routes[i].Asset = i
		}
		record := func(m *sim.Mission, acts []sim.Action) {
			for i, a := range acts {
				cur := m.Cur(i)
				var leg RouteLeg
				if a.IsWait() {
					leg = RouteLeg{From: int32(cur), To: int32(cur), Wait: true, Time: rewardfn.WaitTime}
				} else {
					// Post-step, Cur is the destination; reconstruct the move
					// from the recorded previous leg end (or the source).
					from := team[i].Source
					if n := len(routes[i].Legs); n > 0 {
						from = grid.NodeID(routes[i].Legs[n-1].To)
					}
					w, err := m.Grid().EdgeWeight(from, cur)
					if err != nil {
						w = m.Grid().Distance(from, cur)
					}
					leg = RouteLeg{
						From:  int32(from),
						To:    int32(cur),
						Speed: a.Speed,
						Time:  vessel.MoveTime(w, float64(a.Speed)),
						Fuel:  vessel.MoveFuel(w, float64(a.Speed)),
					}
				}
				routes[i].Legs = append(routes[i].Legs, leg)
				routes[i].Time += leg.Time
				routes[i].Fuel += leg.Fuel
			}
		}
		res, err := sim.RunContext(ctx, sc, planner,
			sim.RunOptions{Collision: collision, OnStep: record, TraceParent: sp, Budget: budget})
		s.recordBudget(sp, budget, err, req.Grid)
		if err != nil {
			return nil, err
		}
		if sp.Enabled() {
			sp.SetAttrs(trace.Bool("found", res.Found), trace.Int("steps", int64(res.Steps)))
		}
		return &PlanResponse{
			Found:      res.Found,
			FoundBy:    res.FoundBy,
			Steps:      res.Steps,
			TTotal:     res.TTotal,
			FTotal:     res.FTotal,
			Collisions: res.Collisions,
			Routes:     routes,
		}, nil
	}

	switch req.Algorithm {
	case "", "approx", "approx-pk":
		// The mission runs under the entry's lock: Do Resets the entry's
		// planner to the request seed before fn runs, and missions on one
		// entry run one at a time, so results are byte-identical to a
		// freshly constructed planner's however requests interleave.
		var resp *PlanResponse
		err := ent.Do(ctx, req.Seed, func(ctx context.Context, ap *approx.Planner) error {
			ap.SetBudget(budget)
			var planner sim.Planner = ap
			if req.Algorithm == "approx-pk" {
				pk, err := partial.NewPlanner(sc, geo.Rect(*req.Region), ap)
				if err != nil {
					return badRequestError{err}
				}
				planner = pk
			}
			var err error
			resp, err = runMission(ctx, planner, sim.RecordCollisions)
			return err
		})
		return resp, err
	case "baseline1":
		return runMission(ctx, baselines.NewRoundRobin(rewardfn.Weights{}, req.Seed), sim.RecordCollisions)
	case "baseline2":
		return runMission(ctx, baselines.NewIndependent(rewardfn.Weights{}, req.Seed), sim.AbortOnCollision)
	case "random":
		return runMission(ctx, baselines.NewRandomWalk(req.Seed), sim.RecordCollisions)
	default:
		// Unreachable: check rejected every other algorithm, so reaching
		// here is a server bug (500), not a client error.
		return nil, fmt.Errorf("tmplar: algorithm %q passed check but has no planner", req.Algorithm)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
