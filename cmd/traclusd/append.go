package main

// POST /v1/models/{name}/append — incremental model growth over the wire.
// The body carries new trajectories in the same formats a build accepts;
// the daemon appends them to the served model in O(Δ) (no rebuild, zero new
// index constructions) and atomically publishes the next epoch: the store
// swaps to the appended model, requests already holding the old epoch
// finish on their consistent pre-append view, and the snapshot persists
// write-behind like a fresh build.
//
// Sharded mode: appends are an owner-side operation — only the owner holds
// the live appender (peers serve snapshot restores, which carry no training
// geometry) — so a request landing on a non-owner forwards to the owner,
// exactly like a build. Peers that cached a pre-append snapshot keep
// serving their epoch until they next fetch; Summary().Epoch tells clients
// which version answered.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/trackio"

	traclus "repro"
)

// AppendRequest is the /v1 append body: the same data envelope as a
// BuildRequest, minus name (in the path) and config (frozen at build time —
// an append never re-estimates or re-parameterises).
type AppendRequest struct {
	// Format names the trajectory encoding of Data: csv (default),
	// besttrack, or telemetry. A spatiotemporal model requires csv with the
	// traj_id,x,y,t timestamp column.
	Format string `json:"format,omitempty"`
	// Species filters multi-species formats (telemetry).
	Species string `json:"species,omitempty"`
	// Data is the trajectory payload, inline in the named format.
	Data string `json:"data"`
}

// handleAppend is POST /v1/models/{name}/append.
func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	raw, err := s.readRaw(w, r)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if s.forwardToOwner(w, r, name, raw) {
		return
	}
	var req AppendRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, "decoding AppendRequest: "+err.Error(), nil)
		return
	}
	// Appends need the live local model: a sharded peer fetch would restore
	// a snapshot, which cannot grow — and we are the owner (or standalone)
	// past the forwarding check, so a local miss is a genuine 404.
	m, found, err := s.store.Get(name)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if !found {
		writeErrorCode(w, http.StatusNotFound, codeNotFound, "model not found", nil)
		return
	}
	format := trackio.FormatCSV
	if req.Format != "" {
		if format, err = trackio.ParseFormat(req.Format); err != nil {
			writeTypedError(w, err)
			return
		}
	}
	// The upload must match the model's geometry, the same decode choice
	// the build and classify paths make: a spatiotemporal model appends CSV
	// with the timestamp column, everything else appends spatial data.
	timed := m.Config().Geometry.Timed()
	if timed && format != trackio.FormatCSV {
		writeErrorCode(w, http.StatusUnprocessableEntity, codeGeometryBad,
			fmt.Sprintf("format %q has no timestamp column; appends to a spatiotemporal model take csv with traj_id,x,y,t rows", format), nil)
		return
	}
	trs, err := s.parseTrajectories([]byte(req.Data), format, req.Species, timed)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if len(trs) == 0 {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, "no trajectories in request body", nil)
		return
	}
	// The append runs under the daemon's base context, not the request's: a
	// client disconnect mid-append must not abort the union/relabel passes
	// (an aborted append invalidates the model's append state until the
	// model is rebuilt). The work is O(new data), so it is bounded anyway.
	// Model.Append validates the trajectories before it changes anything;
	// an invalid one answers 400 below.
	next, err := m.Append(s.cfg.baseCtx, trs)
	if err != nil {
		var cfgErr *traclus.ConfigError
		if errors.As(err, &cfgErr) {
			// The data or geometry does not fit the model it is appending to
			// (e.g. coordinates outside the geodesic frame's valid range):
			// the request is well-formed but unprocessable against this model.
			writeErrorCode(w, http.StatusUnprocessableEntity, codeGeometryBad, err.Error(), map[string]any{
				"field": cfgErr.Field, "value": fmt.Sprint(cfgErr.Value), "reason": cfgErr.Reason,
			})
			return
		}
		writeTypedError(w, err)
		return
	}
	// Publish the new epoch: swap the resident model and persist behind.
	// ErrBuildInFlight (a concurrent build racing the name) maps to 409.
	if err := s.store.Replace(name, next); err != nil {
		writeTypedError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, next.Summary())
}
