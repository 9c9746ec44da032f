package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRouteTable drives every method × path in the route table and pins
// the routing contract mechanically: every route is a registered /v1
// pattern that answers JSON (never the mux's plain-text 404), every
// retired pre-/v1 path answers 404 and starts no job, and an unregistered
// method on a registered path is a 405 from the mux.
func TestRouteTable(t *testing.T) {
	s, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)

	fill := func(pattern string) string {
		p := strings.ReplaceAll(pattern, "{name}", "probe")
		return strings.ReplaceAll(p, "{id}", "job-0")
	}
	routes := s.routes()
	if len(routes) == 0 {
		t.Fatal("empty route table")
	}
	seen := map[string]bool{}
	for _, rt := range routes {
		key := rt.method + " " + rt.path
		if seen[key] {
			t.Errorf("duplicate route %s", key)
		}
		seen[key] = true
		if !strings.HasPrefix(rt.path, "/v1/") {
			t.Errorf("%s: primary pattern is not versioned", key)
		}

		req := httptest.NewRequest(rt.method, fill(rt.path), strings.NewReader(""))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code == http.StatusNotFound && rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: not registered (plain-text 404)", rt.method, fill(rt.path))
		}

		// A method the table does not register on this path must be a 405
		// (or another registered route's answer) — never this handler.
		wrong := http.MethodPatch
		req = httptest.NewRequest(wrong, fill(rt.path), nil)
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("PATCH %s = %d, want 405", fill(rt.path), rec.Code)
		}
	}

	// The pre-/v1 paths are gone: each answers 404, and the old build form
	// (query parameters over a raw CSV body) starts no job.
	for _, old := range []struct{ method, path, body string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodPost, "/models?name=probe&eps=30&minlns=6", csv},
		{http.MethodGet, "/models/probe", ""},
		{http.MethodDelete, "/models/probe", ""},
		{http.MethodPost, "/models/probe/classify", csv},
		{http.MethodGet, "/jobs/job-0", ""},
	} {
		req := httptest.NewRequest(old.method, old.path, strings.NewReader(old.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", old.method, old.path, rec.Code)
		}
	}
	if n := s.jobs.Len(); n != 0 {
		t.Errorf("retired paths started %d jobs, want 0", n)
	}
	_ = ts
}

// TestModelNameCheckedOnEveryRoute: every {name} route refuses a name
// outside the model-name rule with 400 invalid_request (details.field
// "name") before it touches the store or a peer. The replica set is one
// recording fake owner, so any peer fetch or forward the check let through
// shows up as a recorded request.
func TestModelNameCheckedOnEveryRoute(t *testing.T) {
	var peerHits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		peerHits.Add(1)
		http.NotFound(w, nil)
	}))
	t.Cleanup(peer.Close)
	s, err := newServer(serverConfig{peers: []string{peer.URL}, self: "http://self.invalid"})
	if err != nil {
		t.Fatal(err)
	}

	var named []route
	for _, rt := range s.routes() {
		if strings.Contains(rt.path, "{name}") {
			named = append(named, rt)
		}
	}
	if len(named) != 8 {
		t.Fatalf("%d {name} routes, want 8", len(named))
	}
	// a0%3Fx=y%23 decodes to "a0?x=y#": pasted into a peer URL it would
	// address model a0's summary route instead of the requested one.
	for _, bad := range []string{"a0%3Fx=y%23", ".hidden", "bad*name"} {
		for _, rt := range named {
			path := strings.ReplaceAll(rt.path, "{name}", bad)
			req := httptest.NewRequest(rt.method, path, strings.NewReader(`{"data":"x"}`))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			var e envelope
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Errorf("%s %s: body %q is not the envelope: %v", rt.method, path, rec.Body, err)
				continue
			}
			if rec.Code != http.StatusBadRequest || e.Code != codeInvalidRequest || e.Details["field"] != "name" {
				t.Errorf("%s %s = %d %q %v, want 400 invalid_request on field name", rt.method, path, rec.Code, e.Code, e.Details)
			}
		}
	}
	if n := peerHits.Load(); n != 0 {
		t.Errorf("invalid names reached the peer %d times, want 0", n)
	}
}
