package main

// The daemon's entire routing surface is this one table of versioned /v1
// patterns. The table is pinned by a table-driven test over every method ×
// path, so adding or renaming a route without updating the table — or
// registering one outside it — fails the suite.

import (
	"net/http"
	"strings"

	"repro/internal/service"
)

type route struct {
	method string
	// path is the /v1 pattern (net/http ServeMux syntax).
	path    string
	handler http.HandlerFunc
}

func (s *server) routes() []route {
	return []route{
		{method: http.MethodGet, path: "/v1/healthz", handler: s.handleHealthz},
		{method: http.MethodGet, path: "/v1/models", handler: s.handleModelList},
		{method: http.MethodPost, path: "/v1/models", handler: s.handleBuildV1},
		{method: http.MethodGet, path: "/v1/models/{name}", handler: s.handleModelGet},
		{method: http.MethodDelete, path: "/v1/models/{name}", handler: s.handleModelDelete},
		{method: http.MethodPost, path: "/v1/models/{name}/classify", handler: s.handleClassify},
		{method: http.MethodPost, path: "/v1/models/{name}/append", handler: s.handleAppend},
		{method: http.MethodGet, path: "/v1/models/{name}/snapshot", handler: s.handleSnapshotGet},
		{method: http.MethodGet, path: "/v1/models/{name}/sweep", handler: s.handleSweep},
		{method: http.MethodGet, path: "/v1/models/{name}/clusters", handler: s.handleClustersAt},
		{method: http.MethodPut, path: "/v1/models/{name}/snapshot", handler: s.handleSnapshotPut},
		{method: http.MethodGet, path: "/v1/jobs/{id}", handler: s.handleJobGet},
	}
}

// register installs the route table into the mux — the only place handlers
// are attached. Every {name} pattern gets the one model-name check here,
// before its handler can reach the store or a peer: a name outside the
// rule would otherwise be pasted into a peer URL or a snapshot path.
func (s *server) register() {
	for _, rt := range s.routes() {
		h := rt.handler
		if strings.Contains(rt.path, "{name}") {
			h = withValidName(h)
		}
		s.mux.HandleFunc(rt.method+" "+rt.path, h)
	}
}

// withValidName answers 400 invalid_request for a {name} path value that
// service.ValidModelName refuses, and otherwise runs h.
func withValidName(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !service.ValidModelName(r.PathValue("name")) {
			writeInvalidName(w)
			return
		}
		h(w, r)
	}
}

// writeInvalidName is the one answer to a model name outside the rule, in
// the path or in a build body.
func writeInvalidName(w http.ResponseWriter) {
	writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest,
		"model name must match "+service.ModelNamePattern(), map[string]any{"field": "name"})
}
