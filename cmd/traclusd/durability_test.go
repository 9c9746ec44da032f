package main

// The durability acceptance test: a model built by one daemon process is
// served by the next one started on the same -data-dir with ZERO rebuilds
// — the injected build function would fail the test if called, and the
// spatial-index build counter pins that loading constructed exactly one
// index (the classifier's) and ran no clustering.

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/service"
	"repro/internal/spindex"

	traclus "repro"
)

func TestRestartServesWithoutRebuild(t *testing.T) {
	dir := t.TempDir()
	_, csv := trainingCSV(t)

	// First daemon: build, then let the write-behind snapshot land.
	s1, ts1 := testServer(t, serverConfig{workers: 1, dataDir: dir})
	v1Build(t, ts1.URL, BuildRequest{
		Name: "durable",
		Data: csv,
		Config: BuildConfig{Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40)},
	})
	var want struct {
		Results []service.Assignment `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, ts1.URL+"/v1/models/durable/classify", csv, &want); code != http.StatusOK {
		t.Fatalf("classify on first daemon = %d", code)
	}
	s1.store.Quiesce()
	if err := s1.store.SaveErr(); err != nil {
		t.Fatalf("write-behind save failed: %v", err)
	}
	ts1.Close()

	// Second daemon on the same directory: any clustering run fails the
	// test via the injected builder.
	s2, ts2 := testServer(t, serverConfig{
		workers: 1,
		dataDir: dir,
		buildModel: func(context.Context, string, []traclus.Trajectory, traclus.Config, *service.EstimateRange, func(string, float64)) (*service.Model, error) {
			t.Error("restarted daemon ran a model build")
			return nil, context.Canceled
		},
	})

	indexesBefore := spindex.Builds()
	var got struct {
		Results []service.Assignment `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/models/durable/classify", csv, &got); code != http.StatusOK {
		t.Fatalf("classify after restart = %d", code)
	}
	// Loading the snapshot builds exactly the classifier's reference index:
	// one spindex build, zero clustering passes.
	if n := spindex.Builds() - indexesBefore; n != 1 {
		t.Errorf("restart load constructed %d spatial indexes, want 1", n)
	}
	if s2.store.Loads() != 1 {
		t.Errorf("disk loads = %d, want 1", s2.store.Loads())
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results after restart, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("result %d differs after restart: %+v vs %+v", i, got.Results[i], want.Results[i])
		}
	}

	// Summary and repeat classifies serve from the now-warm cache: no
	// further disk loads, no index builds.
	indexesBefore = spindex.Builds()
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/models/durable", "", nil); code != http.StatusOK {
		t.Fatalf("GET after restart = %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/models/durable/classify", csv, nil); code != http.StatusOK {
		t.Fatalf("second classify = %d", code)
	}
	if n := spindex.Builds() - indexesBefore; n != 0 {
		t.Errorf("warm serving constructed %d indexes, want 0", n)
	}
	if s2.store.Loads() != 1 {
		t.Errorf("warm serving re-read disk: loads = %d", s2.store.Loads())
	}

	// A rebuild POST for the durable name is an explicit cache hit, not a
	// silent rebuild.
	var hit struct {
		Cached bool `json:"cached"`
	}
	if code := postBuild(t, ts2.URL, BuildRequest{Name: "durable", Data: csv, Config: fixedConfig()}, &hit); code != http.StatusOK || !hit.Cached {
		t.Fatalf("POST for durable name = %d cached=%v, want 200 cached=true", code, hit.Cached)
	}

	// DELETE removes cache and file; the name 404s afterwards even with
	// the data dir present.
	if code := doJSON(t, http.MethodDelete, ts2.URL+"/v1/models/durable", "", nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/models/durable", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d, want 404", code)
	}
}
