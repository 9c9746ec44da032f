package main

// Multi-ε query endpoints: GET /v1/models/{name}/sweep walks the per-ε
// quality curve and GET /v1/models/{name}/clusters reconstructs the exact
// clustering at one ε — both served from the model's precomputed merge
// structure (internal/dendro), never by re-running the grouping. The sweep's
// quality terms score only the pair distances whose co-membership changed
// since the previous ε step, or since the same step of the model's last
// sweep on the same grid, which survives appends (internal/service).
// Parameter validation is split: unparsable numbers are rejected here with
// invalid_request, while range rules (positivity, lo < hi, the step cap)
// live in the service layer as typed *traclus.ConfigError values that
// writeTypedError maps to the invalid_config envelope.

import (
	"net/http"
	"strconv"

	"repro/internal/service"
)

// defaultSweepSteps is the grid resolution when the request omits steps.
const defaultSweepSteps = 16

// sweepResponse is the wire shape of GET /v1/models/{name}/sweep.
type sweepResponse struct {
	Model  string               `json:"model"`
	Lo     float64              `json:"lo"`
	Hi     float64              `json:"hi"`
	Steps  int                  `json:"steps"`
	Points []service.SweepPoint `json:"points"`
}

// queryFloat parses an optional float query parameter, falling back to def
// when absent. ok=false means the value was present but unparsable.
func queryFloat(r *http.Request, key string, def float64) (v float64, ok bool) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, true
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	m, found, err := s.localModel(r, r.PathValue("name"))
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if !found {
		writeErrorCode(w, http.StatusNotFound, codeNotFound, "model not found", nil)
		return
	}
	// Defaults bracket the model's own ε: [ε/2, 2ε] spans the regime where
	// the clustering visibly coarsens, which is what an operator tuning
	// density wants to see first.
	eps := m.Summary().Eps
	lo, ok := queryFloat(r, "lo", eps/2)
	if !ok {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, "lo must be a number", nil)
		return
	}
	hi, ok := queryFloat(r, "hi", 2*eps)
	if !ok {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, "hi must be a number", nil)
		return
	}
	steps := defaultSweepSteps
	if raw := r.URL.Query().Get("steps"); raw != "" {
		steps, err = strconv.Atoi(raw)
		if err != nil {
			writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, "steps must be an integer", nil)
			return
		}
	}
	pts, err := m.SweepQuality(r.Context(), lo, hi, steps)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sweepResponse{
		Model: m.Name(), Lo: lo, Hi: hi, Steps: steps, Points: pts,
	})
}

func (s *server) handleClustersAt(w http.ResponseWriter, r *http.Request) {
	m, found, err := s.localModel(r, r.PathValue("name"))
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if !found {
		writeErrorCode(w, http.StatusNotFound, codeNotFound, "model not found", nil)
		return
	}
	eps, ok := queryFloat(r, "eps", m.Summary().Eps)
	if !ok {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, "eps must be a number", nil)
		return
	}
	cut, err := m.ClustersAt(r.Context(), eps)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cut)
}
