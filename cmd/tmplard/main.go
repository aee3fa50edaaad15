// Command tmplard serves the TMPLAR-style JSON planning API (Section 4.7 of
// the paper): a back-end service that front-ends query for cooperative
// multi-asset route plans.
//
// Usage:
//
//	tmplard -addr :8080 -grids caribbean.json,ops.json
//	tmplard -addr :8080 -preset caribbean -plan-timeout 10s
//	tmplard -addr :8080 -preset caribbean -model-dir /var/lib/mamorl/models
//
// Endpoints:
//
//	GET  /healthz               liveness
//	GET  /readyz                readiness (503 until a grid and the model are loaded)
//	GET  /version               binary build info (module version, Go version, VCS)
//	GET  /metrics               metrics (Prometheus text; ?format=json for JSON)
//	GET  /debug/traces          recent request traces (ring buffer, JSON; ?limit= / ?name= filters)
//	GET  /debug/slo             evaluated SLO burn-rate report (JSON; see -slo-config)
//	GET  /debug/prof            continuous-profiling captures (JSON; see -profile-interval)
//	GET  /debug/prof/{id}       one capture's hot-function tables (?format=raw&kind= downloads pprof)
//	GET  /debug/catalog         planner catalog snapshot: resident entries, LRU order, hit/miss stats (JSON)
//	GET  /debug/dash            self-contained live dashboard (HTML, no external assets)
//	GET  /debug/metrics/stream  time-series samples over SSE (feeds the dashboard)
//	GET  /api/grids             registered grids (name-sorted)
//	POST /api/grids             upload a grid (JSON, gridgen format)
//	POST /api/plan              global view: plan all assets of a mission (grid/model_id select the tenant)
//	POST /api/plan/asset        local view: plan a single asset
//	POST /api/jobs/plan         submit a plan as an async job (202 + job ID)
//	GET  /api/jobs/{id}         poll a job (state, result when done)
//	DELETE /api/jobs/{id}       cancel a queued or running job
//	GET  /api/jobs/{id}/events  job status transitions over SSE
//
// With -model-dir, the trained Approx-MaMoRL model persists in a
// content-addressed registry: a restart warm-starts from the stored
// artifact instead of retraining (the startup log names the artifact), and
// a cache miss trains once and registers the result.
//
// The server answers 503 with a JSON error when a plan exceeds the
// -plan-timeout deadline, 413 when a body exceeds the -max-grid-bytes /
// -max-plan-bytes limits, 429 with Retry-After when the async job queue is
// full, and shuts down gracefully on SIGINT/SIGTERM (draining the job
// queue). Every response carries an X-Trace-Id header; request log records
// carry the same ID, and GET /debug/traces resolves it to the full span
// tree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	mamorl "github.com/routeplanning/mamorl"
)

// newLogger builds the process logger in the requested format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		grids       = flag.String("grids", "", "comma-separated grid JSON files to preload")
		preset      = flag.String("preset", "", "preload a preset mesh: caribbean, na-shore, atlantic")
		seed        = flag.Int64("seed", 1, "model training seed")
		planTimeout = flag.Duration("plan-timeout", 30*time.Second, "per-request planning deadline (503 on expiry)")
		maxGrid     = flag.Int64("max-grid-bytes", 32<<20, "grid upload body limit in bytes (413 beyond)")
		maxPlan     = flag.Int64("max-plan-bytes", 1<<20, "plan request body limit in bytes (413 beyond)")
		traceBuf    = flag.Int("trace-buffer", 256, "recent request traces kept for GET /debug/traces")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		quiet       = flag.Bool("quiet", false, "disable per-request logging")
		drain       = flag.Duration("drain", 35*time.Second, "graceful-shutdown drain budget")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); disabled when empty")
		sampleEvery = flag.Duration("sample-interval", 2*time.Second, "metrics sampler tick feeding /debug/dash")
		modelDir    = flag.String("model-dir", "", "persistent model registry directory (warm-start on restart; empty disables)")
		trainWork   = flag.Int("train-workers", 1, "goroutines sharding the train-on-miss model fit; weights and artifact IDs are byte-identical at any value")
		jobWorkers  = flag.Int("job-workers", 0, "async planning worker pool size (0 = default)")
		jobQueue    = flag.Int("job-queue", 0, "async planning queue depth before 429 backpressure (0 = default)")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job execution deadline (0 = plan-timeout)")
		jobRetain   = flag.Duration("job-retention", 0, "how long finished job records stay queryable (0 = default 15m, negative = forever)")
		jobRecords  = flag.Int("job-max-records", 0, "finished job records retained before eviction (0 = default 10000, negative = unbounded)")
		maxNodes    = flag.Int64("max-nodes", 0, "per-request budget: planner node expansions (0 = unlimited; 429 when exhausted)")
		maxSamples  = flag.Int64("max-samples", 0, "per-request budget: training samples drawn (0 = unlimited; 429 when exhausted)")
		maxBytes    = flag.Int64("max-bytes", 0, "per-request budget: approximate bytes allocated (0 = unlimited; 429 when exhausted)")
		sseKeep     = flag.Duration("sse-keepalive", 0, "SSE idle keep-alive interval (0 = default 15s, negative = disabled)")
		sloConfig   = flag.String("slo-config", "", "SLO spec JSON file ({\"slos\": [...]}); empty = compiled-in defaults, \"none\" disables evaluation")
		mutexFrac   = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction for the -pprof mutex profile (0 = off)")
		blockRate   = flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate in ns for the -pprof block profile (0 = off)")
		profEvery   = flag.Duration("profile-interval", 0, "continuous profiler: scheduled capture interval feeding /debug/prof (0 = disabled)")
		profWindow  = flag.Duration("profile-window", 5*time.Second, "continuous profiler: CPU sampling window per capture")
		catCap      = flag.Int("catalog-capacity", 0, "resident (grid, model) planner entries before LRU eviction (0 = default 8)")
		version     = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()

	if *version {
		bi := mamorl.ReadBuildInfo()
		fmt.Printf("tmplard %s (go %s, rev %s, built %s, modified %v)\n",
			bi.Version, bi.GoVersion, bi.Revision, bi.BuildTime, bi.Modified)
		return
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}
	reqLogger := logger
	if *quiet {
		reqLogger = nil
	}

	bi := mamorl.ReadBuildInfo()
	logger.Info("tmplard starting",
		"version", bi.Version, "go", bi.GoVersion,
		"revision", bi.Revision, "modified", bi.Modified)

	// nil keeps the compiled-in default objectives; an empty non-nil slice
	// disables evaluation ("none"); a file path replaces them entirely.
	var sloSpecs []mamorl.SLOSpec
	switch *sloConfig {
	case "":
	case "none":
		sloSpecs = []mamorl.SLOSpec{}
	default:
		sloSpecs, err = mamorl.LoadSLOConfig(*sloConfig)
		if err != nil {
			fatalf("%v", err)
		}
		logger.Info("loaded SLO config", "path", *sloConfig, "slos", len(sloSpecs))
	}

	logger.Info("initializing Approx-MaMoRL model", "seed", *seed, "model_dir", *modelDir)
	srv, err := mamorl.NewTMPLARServerOpts(*seed, mamorl.TMPLAROptions{
		PlanTimeout:     *planTimeout,
		MaxGridBytes:    *maxGrid,
		MaxPlanBytes:    *maxPlan,
		TraceBuffer:     *traceBuf,
		Logger:          reqLogger,
		SampleInterval:  *sampleEvery,
		ModelDir:        *modelDir,
		TrainWorkers:    *trainWork,
		JobWorkers:      *jobWorkers,
		JobQueueDepth:   *jobQueue,
		JobTimeout:      *jobTimeout,
		JobRetention:    *jobRetain,
		JobMaxRecords:   *jobRecords,
		MaxNodes:        *maxNodes,
		MaxSamples:      *maxSamples,
		MaxBytes:        *maxBytes,
		SSEKeepAlive:    *sseKeep,
		SLOs:            sloSpecs,
		ProfileInterval: *profEvery,
		ProfileWindow:   *profWindow,
		CatalogCapacity: *catCap,
	})
	if err != nil {
		fatalf("%v", err)
	}
	switch src, artifact := srv.ModelSource(); src {
	case "registry":
		logger.Info("model warm-started from registry artifact", "artifact", artifact)
	default:
		logger.Info("model freshly trained", "artifact", artifact)
	}

	if *grids != "" {
		for _, path := range strings.Split(*grids, ",") {
			g, err := mamorl.LoadGrid(strings.TrimSpace(path))
			if err != nil {
				fatalf("load %s: %v", path, err)
			}
			srv.InstallGrid(g)
			logger.Info("installed grid", "grid", fmt.Sprint(g.Stats()))
		}
	}
	if *preset != "" {
		g, err := loadPreset(*preset, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		srv.InstallGrid(g)
		logger.Info("installed preset", "grid", fmt.Sprint(g.Stats()))
	}

	// WriteTimeout must outlast the planning deadline: a mission that uses
	// its full budget still needs time to serialize the route afterwards.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      srv.PlanTimeout() + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
	}

	// The profiling endpoints live on their own listener (normally bound to
	// localhost) so they are never reachable through the public API address.
	if *pprofAddr != "" {
		// Contention profiles are opt-in: sampling mutex waits and blocking
		// events costs a little on every contended operation, so both stay
		// off unless their flag asks for them.
		if *mutexFrac > 0 {
			runtime.SetMutexProfileFraction(*mutexFrac)
			logger.Info("mutex profiling enabled", "fraction", *mutexFrac)
		}
		if *blockRate > 0 {
			runtime.SetBlockProfileRate(*blockRate)
			logger.Info("block profiling enabled", "rate_ns", *blockRate)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				logger.Error("pprof", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Tick the time-series sampler so /debug/dash and /debug/metrics/stream
	// are live; it stops with the signal context during shutdown.
	go srv.Sampler().Run(ctx)

	// Scheduled profile captures for /debug/prof run until shutdown. Run is
	// nil-safe, so this is a no-op when -profile-interval is 0; SLO-breach
	// captures need no runner either way.
	if srv.Profiler().Enabled() {
		logger.Info("continuous profiler enabled",
			"interval", *profEvery, "window", srv.Profiler().Window())
	}
	go srv.Profiler().Run(ctx)

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "plan_deadline", srv.PlanTimeout())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		logger.Info("signal received; draining", "budget", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
			_ = httpSrv.Close()
		}
		// The listener is closed; finish the async jobs still in the queue
		// (new submissions were already being rejected) before exiting.
		if err := srv.DrainJobs(shutdownCtx); err != nil {
			logger.Error("job drain", "err", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
		}
		logger.Info("stopped")
	}
}

func loadPreset(name string, seed int64) (*mamorl.Grid, error) {
	switch name {
	case "caribbean":
		return mamorl.CaribbeanGrid(seed)
	case "na-shore":
		return mamorl.NorthAmericaShoreGrid(seed)
	case "atlantic":
		return mamorl.AtlanticGrid(seed)
	default:
		return nil, fmt.Errorf("unknown preset %q", name)
	}
}
