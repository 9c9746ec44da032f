// Command traclusd is the TRACLUS serving daemon: it builds clustering
// models from uploaded trajectory data, persists them as versioned binary
// snapshots, and answers online classification queries about new
// trajectories — the batch-model-then-serve-updates split the batch CLI
// cannot provide.
//
// Usage:
//
//	traclusd [-addr :8125] [-workers 0] [-max-models 16]
//	         [-max-body 33554432] [-max-points 5000000]
//	         [-max-trajectories 500000] [-max-builds 4]
//	         [-classify-timeout 30s] [-data-dir DIR]
//	         [-peers URL,URL,...] [-self URL]
//
// Versioned API (v1):
//
//	POST /v1/models            body: JSON BuildRequest (see api.go);
//	                           config.geometry selects planar (default),
//	                           spatiotemporal (+config.wt, data must be CSV
//	                           with a traj_id,x,y,t timestamp column, kept
//	                           as the trajectories' Times), or geodesic
//	                           (x=lon, y=lat degrees); the other geometries
//	                           drop a t column. Every trajectory is
//	                           validated first: → 400 invalid_request for a
//	                           one-point trajectory or a non-finite
//	                           coordinate, weight or time, with no job
//	                           started; else 202 job to poll, or 200
//	                           {"cached":true}
//	GET  /v1/models            → {"models":[...]} resident model names
//	GET  /v1/models/{name}     → model summary + per-cluster stats
//	POST /v1/models/{name}/classify   body: CSV (traj_id,x,y; a
//	                           spatiotemporal model takes traj_id,x,y,t)
//	POST /v1/models/{name}/append     body: JSON {"format","species","data"}
//	                           (same data formats and validation as a
//	                           build) — extend the served model with new
//	                           trajectories in O(Δ), no rebuild; → 200 new
//	                           summary with "epoch" incremented, 400 on an
//	                           invalid trajectory, 404 unknown model, 409
//	                           on a snapshot-restored model (no training
//	                           geometry), 422 geometry_mismatch when the
//	                           data does not fit the model's geometry.
//	                           Sharded mode forwards to the owner replica.
//	GET  /v1/models/{name}/snapshot   → binary snapshot (export)
//	PUT  /v1/models/{name}/snapshot   body: binary snapshot (import)
//	GET  /v1/models/{name}/sweep?lo=&hi=&steps=   → per-ε quality curve
//	                           (clusters, noise fraction, SSE) cut from the
//	                           model's dendrogram; defaults lo=ε/2, hi=2ε,
//	                           steps=16
//	GET  /v1/models/{name}/clusters?eps=X   → exact clustering at ε
//	                           (members, trajectories, representatives)
//	DELETE /v1/models/{name}   → evict + cancel in-flight builds
//	GET  /v1/jobs/{id}         → job state + live phase/progress
//	GET  /v1/healthz           → liveness + model/job counts
//
// Every error is the one JSON envelope {"code","message","details"}; see
// api.go for the code ↔ status mapping. Builds take the consolidated JSON
// body and refuse silent defaults (eps/min_lns must be explicit unless
// auto estimation is on). A {name} outside the model-name rule answers
// 400 invalid_request on every route, before any store or peer access.
//
// Persistence: with -data-dir set, every finished build is written behind
// as <dir>/<name>.snap and cache misses read through to disk, so a daemon
// restarted on the same directory serves previously built models without
// re-running the clustering — only the classifier's spatial index is
// rebuilt on load. Snapshots are self-contained, validated on decode
// (corrupt, truncated, or future-version files are rejected with typed
// 422s, never a crash), and portable across replicas.
//
// Scale-out: -peers lists the replica set (full base URLs, comma
// separated) and -self names this process's own entry. Model names are
// sharded over the replicas by consistent hashing; a build request landing
// on a non-owner is forwarded to the owner (one hop, loop-guarded, the
// X-Traclus-Owner response header names it), duplicate builds across the
// fleet collapse into the owner's single-flight, and build jobs are polled
// on the owner. Classification stays local: a non-owner fetches the
// finished snapshot from the owner once, caches it (memory + disk), and
// serves every later query itself.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ring"
	"repro/internal/service"

	traclus "repro"
)

func main() {
	fs := flag.NewFlagSet("traclusd", flag.ExitOnError)
	addr := fs.String("addr", ":8125", "listen address")
	workers := fs.Int("workers", 0, "parallelism for builds and classification (0 = all CPUs)")
	maxModels := fs.Int("max-models", 16, "LRU capacity of the model cache (0 = unbounded)")
	maxBody := fs.Int64("max-body", 32<<20, "maximum request body size in bytes")
	maxPoints := fs.Int("max-points", 0, "maximum points per upload (0 = default 5M)")
	maxTrajs := fs.Int("max-trajectories", 0, "maximum trajectories per upload (0 = default 500k)")
	maxBuilds := fs.Int("max-builds", 0, "maximum concurrently running builds (0 = default 4)")
	classifyTimeout := fs.Duration("classify-timeout", 30*time.Second, "per-request classification deadline")
	dataDir := fs.String("data-dir", "", "snapshot directory for durable models (empty = memory-only)")
	peers := fs.String("peers", "", "comma-separated replica base URLs for sharded serving (empty = standalone)")
	self := fs.String("self", "", "this replica's own entry in -peers")
	_ = fs.Parse(os.Args[1:])

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, strings.TrimRight(p, "/"))
			}
		}
		if *self == "" {
			log.Fatalf("traclusd: -peers requires -self")
		}
	}

	s, err := newServer(serverConfig{
		workers:         *workers,
		maxModels:       *maxModels,
		maxBody:         *maxBody,
		maxPoints:       *maxPoints,
		maxTrajectories: *maxTrajs,
		maxBuilds:       *maxBuilds,
		classifyTimeout: *classifyTimeout,
		dataDir:         *dataDir,
		peers:           peerList,
		self:            strings.TrimRight(*self, "/"),
		baseCtx:         ctx, // SIGTERM also cancels in-flight builds
	})
	if err != nil {
		log.Fatalf("traclusd: %v", err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("traclusd: listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatalf("traclusd: %v", err)
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, drain in-flight requests, then let
	// the write-behind snapshot saves finish — a SIGTERM right after a build
	// must not lose the model.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("traclusd: shutdown: %v", err)
	}
	s.store.Quiesce()
	log.Printf("traclusd: stopped")
}

// serverConfig carries the daemon's tunables; the zero value is usable in
// tests (unbounded cache, no body cap, long timeout, memory-only store,
// standalone).
type serverConfig struct {
	workers         int
	maxModels       int
	maxBody         int64
	maxPoints       int // cap on points per upload (0 = default)
	maxTrajectories int // cap on trajectories per upload (0 = default)
	maxBuilds       int // cap on concurrently running builds (0 = default)
	classifyTimeout time.Duration

	dataDir string   // snapshot directory ("" = memory-only)
	peers   []string // replica base URLs ("" or len 0 = standalone)
	self    string   // this replica's entry in peers

	// baseCtx parents every build-job context, so daemon shutdown also
	// cancels in-flight builds. nil means context.Background().
	baseCtx context.Context

	// buildModel is the model builder; tests inject counting/blocking
	// wrappers to verify single-flight dedup and cancellation. nil means
	// service.BuildCtx.
	buildModel func(ctx context.Context, name string, trs []traclus.Trajectory, cfg traclus.Config, est *service.EstimateRange, progress func(phase string, fraction float64)) (*service.Model, error)
}

type server struct {
	cfg   serverConfig
	store *service.DiskStore
	jobs  *service.Jobs
	mux   *http.ServeMux
	ring  *ring.Ring   // nil when standalone
	peerc *http.Client // forwarding + snapshot-fetch client

	// buildSem gates concurrently running builds: each is a full clustering
	// run fanning out across all workers while holding its upload, so the
	// count must be bounded — single-flight only collapses same-name
	// duplicates. Handlers try-acquire (429 when full); the build goroutine
	// releases.
	buildSem chan struct{}
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.buildModel == nil {
		cfg.buildModel = service.BuildCtx
	}
	if cfg.baseCtx == nil {
		cfg.baseCtx = context.Background()
	}
	if cfg.classifyTimeout <= 0 {
		cfg.classifyTimeout = 30 * time.Second
	}
	if cfg.maxPoints == 0 {
		cfg.maxPoints = 5_000_000
	}
	if cfg.maxTrajectories == 0 {
		cfg.maxTrajectories = 500_000
	}
	if cfg.maxBuilds == 0 {
		cfg.maxBuilds = 4
	}
	store, err := service.NewDiskStore(cfg.dataDir, cfg.maxModels)
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:      cfg,
		store:    store,
		jobs:     service.NewJobs(),
		mux:      http.NewServeMux(),
		peerc:    &http.Client{Timeout: 60 * time.Second},
		buildSem: make(chan struct{}, cfg.maxBuilds),
	}
	if len(cfg.peers) > 0 {
		s.ring = ring.New(cfg.peers, 0)
	}
	s.register()
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleModelGet serves the model summary, fetching the snapshot from the
// owning replica on a local miss (sharded mode only).
func (s *server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	m, found, err := s.localModel(r, r.PathValue("name"))
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if !found {
		writeErrorCode(w, http.StatusNotFound, codeNotFound, "model not found", nil)
		return
	}
	writeJSON(w, http.StatusOK, m.Summary())
}

// handleModelList reports the resident model names, most recently used
// first. Models only on disk (or on peers) are not listed — this is the
// serving cache, not a catalog.
func (s *server) handleModelList(w http.ResponseWriter, _ *http.Request) {
	names := s.store.Names()
	if names == nil {
		names = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": names})
}

// handleModelDelete evicts the named model (cache and snapshot file) and
// aborts any builds of it still in flight (their jobs finish as
// "cancelled"). 404 only when there was neither a cached model nor a
// running build. In sharded mode the delete is local to this replica.
func (s *server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cancelled := s.jobs.CancelModel(name)
	deleted := s.store.Delete(name)
	if !deleted && cancelled == 0 {
		writeErrorCode(w, http.StatusNotFound, codeNotFound, "model not found", nil)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           "deleted",
		"deleted":          deleted,
		"cancelled_builds": cancelled,
	})
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErrorCode(w, http.StatusNotFound, codeNotFound, "job not found", nil)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{
		"status": "ok",
		"models": s.store.Len(),
		"jobs":   s.jobs.Len(),
	}
	if s.cfg.dataDir != "" {
		resp["data_dir"] = s.cfg.dataDir
		resp["snapshot_loads"] = s.store.Loads()
		resp["snapshot_saves"] = s.store.Saves()
	}
	if s.ring != nil {
		resp["replicas"] = s.ring.Replicas()
		resp["self"] = s.cfg.self
	}
	writeJSON(w, http.StatusOK, resp)
}
