package main

// Model building: POST /v1/models takes one validated JSON BuildRequest
// body (data inline, config consolidated, no silent defaults).
// handleBuildV1 decodes it and resolves ownership; startBuild owns the
// cache check, validation, the build semaphore, and the single-flight job
// start.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"

	"repro/internal/service"
	"repro/internal/trackio"

	traclus "repro"
)

// BuildRequest is the /v1 build body. Pointer fields are presence-tested:
// v1 refuses to invent clustering parameters, so eps and min_lns are
// required unless auto estimation is requested — a request that omits them
// is answered 400, never built with defaults the client did not choose.
type BuildRequest struct {
	// Name identifies the model; required, and the shard key in a replica
	// set.
	Name string `json:"name"`
	// Format names the trajectory encoding of Data: csv (default),
	// besttrack, or telemetry.
	Format string `json:"format,omitempty"`
	// Species filters multi-species formats (telemetry).
	Species string `json:"species,omitempty"`
	// Data is the trajectory payload itself, inline in the named format.
	Data string `json:"data"`
	// Config carries every clustering parameter; required unless Auto is
	// set inside it.
	Config BuildConfig `json:"config"`
}

// BuildConfig carries every clustering parameter of a build in one JSON
// object; an absent field keeps the library's zero-value default.
type BuildConfig struct {
	Eps              *float64   `json:"eps,omitempty"`
	MinLns           *float64   `json:"min_lns,omitempty"`
	MinTrajs         *int       `json:"min_trajs,omitempty"`
	Undirected       *bool      `json:"undirected,omitempty"`
	CostAdvantage    *float64   `json:"cost_advantage,omitempty"`
	MinSegmentLength *float64   `json:"min_seg_len,omitempty"`
	Gamma            *float64   `json:"gamma,omitempty"`
	Index            string     `json:"index,omitempty"`
	Workers          *int       `json:"workers,omitempty"`
	Auto             *AutoRange `json:"auto,omitempty"`
	// Geometry selects the segment geometry: planar (default),
	// spatiotemporal (data must carry the CSV timestamp column), or
	// geodesic (x=longitude, y=latitude in degrees).
	Geometry string `json:"geometry,omitempty"`
	// TemporalWeight is the spatiotemporal wT; setting it requires
	// geometry "spatiotemporal".
	TemporalWeight *float64 `json:"wt,omitempty"`
}

// AutoRange requests §4.4 entropy estimation of eps/min_lns over [Lo, Hi].
// Absent bounds derive from the data extent; an explicit 0 is a bound
// violation, not a request for the default — presence decides, not the
// zero value.
type AutoRange struct {
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
}

// buildSpec is the normalized build request.
type buildSpec struct {
	name    string
	cfg     traclus.Config
	auto    *AutoRange // nil: fixed ε; else estimate over these bounds
	format  trackio.Format
	species string
	data    []byte
}

// handleBuildV1 is POST /v1/models: one JSON body, strictly decoded.
func (s *server) handleBuildV1(w http.ResponseWriter, r *http.Request) {
	raw, err := s.readRaw(w, r)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	var req BuildRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, "decoding BuildRequest: "+err.Error(), nil)
		return
	}
	if !service.ValidModelName(req.Name) {
		writeInvalidName(w)
		return
	}
	if s.forwardToOwner(w, r, req.Name, raw) {
		return
	}
	c := req.Config
	spec := buildSpec{name: req.Name, auto: c.Auto, species: req.Species, data: []byte(req.Data), format: trackio.FormatCSV}
	if req.Format != "" {
		if spec.format, err = trackio.ParseFormat(req.Format); err != nil {
			writeTypedError(w, err)
			return
		}
	}
	// No silent defaults: the two parameters that define the clustering
	// must be explicit when not estimated.
	if c.Auto == nil && (c.Eps == nil || c.MinLns == nil) {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest,
			"config.eps and config.min_lns are required unless config.auto is set", map[string]any{"field": "config"})
		return
	}
	setIf := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setIf(&spec.cfg.Eps, c.Eps)
	setIf(&spec.cfg.MinLns, c.MinLns)
	setIf(&spec.cfg.CostAdvantage, c.CostAdvantage)
	setIf(&spec.cfg.MinSegmentLength, c.MinSegmentLength)
	setIf(&spec.cfg.Gamma, c.Gamma)
	if c.MinTrajs != nil {
		spec.cfg.MinTrajs = *c.MinTrajs
	}
	if c.Undirected != nil {
		spec.cfg.Undirected = *c.Undirected
	}
	if c.Workers != nil {
		spec.cfg.Workers = *c.Workers
	} else {
		spec.cfg.Workers = s.cfg.workers
	}
	if c.Index != "" {
		backend, err := traclus.ParseIndexBackend(c.Index)
		if err != nil {
			writeTypedError(w, err)
			return
		}
		spec.cfg.Index = backend
	}
	geo, err := parseGeometryParams(c.Geometry, c.TemporalWeight)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	spec.cfg.Geometry = geo
	s.startBuild(w, r, spec)
}

// parseGeometryParams resolves a build's geometry/wt pair. Unknown
// geometry names and a wt on a non-spatiotemporal geometry surface as
// typed *ConfigError (the invalid_config envelope).
func parseGeometryParams(name string, wt *float64) (traclus.Geometry, error) {
	geo, err := traclus.ParseGeometry(name)
	if err != nil {
		return traclus.Geometry{}, err
	}
	if wt != nil {
		if !geo.Timed() {
			return traclus.Geometry{}, &traclus.ConfigError{
				Field: "Geometry", Value: name,
				Reason: `wt is the spatiotemporal weight; set geometry to "spatiotemporal"`,
			}
		}
		geo.WT = *wt
	}
	return geo, nil
}

// startBuild is the build core: cache check, config validation, data
// parse, estimation-bound resolution, build-slot acquisition, and the
// async single-flight job start. The caller has already resolved ownership
// (forwarding happens on the raw request).
func (s *server) startBuild(w http.ResponseWriter, r *http.Request, spec buildSpec) {
	// A name already resident — in memory or as a disk snapshot — is
	// answered explicitly instead of silently dropping the new upload: the
	// client learns the model was served from cache and must DELETE first
	// (which also removes the snapshot file) to rebuild with new data or
	// parameters. A snapshot that exists but fails to decode is not a hit:
	// the fresh build below will overwrite it.
	if _, ok, err := s.store.Get(spec.name); err == nil && ok {
		writeJSON(w, http.StatusOK, map[string]any{
			"model":  spec.name,
			"state":  service.JobDone,
			"cached": true,
		})
		return
	}
	if spec.auto == nil {
		if err := spec.cfg.Validate(); err != nil {
			writeTypedError(w, err)
			return
		}
	} else if err := spec.cfg.ValidateForEstimation(); err != nil {
		// Eps/MinLns are what auto estimation finds; everything else must
		// still be well-formed.
		writeTypedError(w, err)
		return
	}
	// A spatiotemporal geometry keeps the CSV timestamp column as the
	// trajectories' Times; every other geometry drops it at decode
	// (geodesic projection happens inside the pipeline).
	timed := spec.cfg.Geometry.Timed()
	if timed && spec.format != trackio.FormatCSV {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Sprintf("format %q has no timestamp column; spatiotemporal builds take csv with traj_id,x,y,t rows", spec.format), nil)
		return
	}
	trs, err := s.parseTrajectories(spec.data, spec.format, spec.species, timed)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if len(trs) == 0 {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, "no trajectories in request body", nil)
		return
	}
	// Structural problems (a one-point trajectory, a non-finite coordinate,
	// weight or time, non-monotone timestamps) and geodesic points outside
	// the degree bounds must answer 400 synchronously, not fail the async
	// job.
	for _, tr := range trs {
		if err := tr.Validate(); err != nil {
			writeTypedError(w, err)
			return
		}
		if reason := spec.cfg.Geometry.CheckPoints(tr); reason != "" {
			writeTypedError(w, &traclus.ConfigError{Field: "Geometry", Value: spec.cfg.Geometry.Kind.String(), Reason: reason})
			return
		}
	}
	var est *service.EstimateRange
	if spec.auto != nil {
		// Absent bounds derive from the data extent (the CLI's -auto rule),
		// each side independently so an explicit single bound survives:
		// presence decides, not the zero value. The combined interval is
		// then validated here, synchronously — bad bounds must answer 400,
		// not a failed async job.
		lo, hi := traclus.DefaultEstimationRange(trs)
		if spec.auto.Lo != nil {
			lo = *spec.auto.Lo
		}
		if spec.auto.Hi != nil {
			hi = *spec.auto.Hi
		}
		if err := traclus.ValidateEstimationRange(lo, hi); err != nil {
			writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest,
				fmt.Sprintf("auto estimation bounds: %v", err),
				map[string]any{"lo": fmt.Sprint(lo), "hi": fmt.Sprint(hi)})
			return
		}
		est = &service.EstimateRange{Lo: lo, Hi: hi}
	}
	// Only requests that may start a fresh clustering run consume a build
	// slot and retain their upload; a request for a name already in flight
	// joins that build instead — its job merely waits on the shared outcome
	// (Store.WaitCtx), so it neither 429s unrelated builds nor parks its
	// parsed body for the build's duration. The Pending check is advisory:
	// a race can let same-name duplicates each take a slot (the semaphore
	// tolerates the over-count; single-flight still runs one build), or
	// land a join on a build that just failed, which reports a retryable
	// job failure.
	name, cfg := spec.name, spec.cfg
	joins := s.store.Pending(name)
	var startJob func(ctx context.Context, update func(phase string, fraction float64)) (string, error)
	if joins {
		startJob = func(ctx context.Context, _ func(string, float64)) (string, error) {
			// The joiner waits under its own job context, so cancelling it
			// (or DELETE on the model) releases this waiter even though the
			// shared build belongs to another job.
			_, found, err := s.store.WaitCtx(ctx, name)
			if err != nil {
				return "", err
			}
			if !found {
				return "", fmt.Errorf("concurrent build of %q failed and was dropped; retry", name)
			}
			return "deduplicated into a concurrent build of this model; this request's upload was not used", nil
		}
	} else {
		select {
		case s.buildSem <- struct{}{}:
		default:
			writeErrorCode(w, http.StatusTooManyRequests, codeTooManyBuilds,
				fmt.Sprintf("too many builds in flight (max %d); retry after a job finishes", s.cfg.maxBuilds),
				map[string]any{"max_builds": s.cfg.maxBuilds})
			return
		}
		startJob = func(ctx context.Context, update func(phase string, fraction float64)) (string, error) {
			defer func() { <-s.buildSem }()
			_, built, _, err := s.store.GetOrBuild(name, func() (*service.Model, error) {
				return s.cfg.buildModel(ctx, name, trs, cfg, est, update)
			})
			if err == nil && !built {
				return "deduplicated into a concurrent build of this model; this request's upload was not used", nil
			}
			return "", err
		}
	}
	writeJSON(w, http.StatusAccepted, s.jobs.Start(s.cfg.baseCtx, name, startJob))
}

// readRaw reads the full request body under the configured byte cap; an
// oversized body surfaces the typed *http.MaxBytesError (413).
func (s *server) readRaw(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := r.Body
	if s.cfg.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.maxBody)
	}
	return io.ReadAll(body)
}

// parseTrajectories decodes trajectory data in the given format under the
// per-upload caps. CSV goes through the streaming decoder so hostile
// inputs are bounded before they are materialised; timed keeps its
// timestamp column as Times (and requires it on every row), otherwise the
// column is dropped. The caps are column-count independent.
func (s *server) parseTrajectories(data []byte, format trackio.Format, species string, timed bool) ([]traclus.Trajectory, error) {
	if format == trackio.FormatCSV {
		d := trackio.NewCSVDecoder(bytes.NewReader(data))
		d.MaxPoints = s.cfg.maxPoints
		d.MaxTrajectories = s.cfg.maxTrajectories
		decode := d.DecodeAllCSV
		if timed {
			decode = d.DecodeAllTimedCSV
		}
		trs, err := decode()
		if err != nil {
			return nil, err
		}
		// Merge non-contiguous runs of one id so the daemon parses CSV
		// exactly like the CLI's ReadCSV, interleaved ids included.
		return trackio.MergeByID(trs), nil
	}
	trs, err := trackio.Read(bytes.NewReader(data), format, species)
	if err != nil {
		return nil, err
	}
	// These formats have no streaming decoder yet; enforce the same
	// per-upload caps post-parse so they are never silently wider than the
	// CSV path.
	if err := checkUploadLimits(trs, s.cfg.maxPoints, s.cfg.maxTrajectories); err != nil {
		return nil, err
	}
	return trs, nil
}

// checkUploadLimits applies the points/trajectories caps to an already
// parsed upload, mirroring the CSVDecoder's streaming enforcement.
func checkUploadLimits(trs []traclus.Trajectory, maxPoints, maxTrajs int) error {
	if maxTrajs > 0 && len(trs) > maxTrajs {
		return &trackio.LimitError{What: "trajectories", Limit: maxTrajs}
	}
	if maxPoints > 0 {
		total := 0
		for _, tr := range trs {
			total += len(tr.Points)
		}
		if total > maxPoints {
			return &trackio.LimitError{What: "points", Limit: maxPoints}
		}
	}
	return nil
}

// handleClassify classifies uploaded trajectories against the named model.
// In sharded mode a local miss fetches the owner's snapshot once and
// caches it; classification itself always runs locally.
func (s *server) handleClassify(w http.ResponseWriter, r *http.Request) {
	m, found, err := s.localModel(r, r.PathValue("name"))
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if !found {
		writeErrorCode(w, http.StatusNotFound, codeNotFound, "model not found", nil)
		return
	}
	raw, err := s.readRaw(w, r)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	// A spatiotemporal model classifies trajectories that carry Times: the
	// upload must carry the timestamp column so the temporal distance
	// component has a query interval to gap against the cluster windows.
	trs, err := s.parseTrajectories(raw, trackio.FormatCSV, "", m.Config().Geometry.Timed())
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if len(trs) == 0 {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, "no trajectories in request body", nil)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.classifyTimeout)
	defer cancel()
	results := m.ClassifyBatch(ctx, trs, s.cfg.workers)
	if err := r.Context().Err(); err != nil {
		// Cancellation and deadline map differently: a vanished client is a
		// 499-style abandonment (no response can reach anyone — log it so
		// operators can tell dropped clients from slow models), while our
		// own classify deadline falls through to the 504/partial logic.
		if errors.Is(err, context.Canceled) {
			log.Printf("traclusd: %s %s: client disconnected before response (499): %v", r.Method, r.URL.Path, err)
			return
		}
		log.Printf("traclusd: %s %s: request context ended: %v", r.Method, r.URL.Path, err)
		return
	}
	// On deadline expiry, completed assignments are still returned (the
	// stragglers carry the context error per item); a batch where nothing
	// completed is a plain timeout.
	timedOut := errors.Is(ctx.Err(), context.DeadlineExceeded)
	if timedOut {
		done := 0
		for _, a := range results {
			if a.Err == "" {
				done++
			}
		}
		if done == 0 {
			writeErrorCode(w, http.StatusGatewayTimeout, codeTimeout, "classification timed out", nil)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model":     m.Name(),
		"results":   results,
		"timed_out": timedOut,
	})
}
