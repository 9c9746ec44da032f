package main

// The geometry layer over HTTP: a spatiotemporal model builds from timed
// CSV, snapshots, restores under a new name, and classifies identically —
// the acceptance path for the pluggable-geometry layer — plus the typed
// 400s for bad geometry parameters.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/trackio"
)

func timedTrainingCSV(t *testing.T) string {
	t.Helper()
	trs := synth.TimedCorridorScene(2, 10, 24, 4, 11, 60, 10)
	var buf bytes.Buffer
	if err := trackio.WriteCSV(&buf, trs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestV1SpatiotemporalEndToEnd: build (geometry=spatiotemporal, wt) from
// timed CSV, read the summary, export the snapshot, import it under a new
// name, and verify the clone classifies timed probes bit-identically.
func TestV1SpatiotemporalEndToEnd(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	csv := timedTrainingCSV(t)

	v1Build(t, ts.URL, BuildRequest{
		Name: "st",
		Data: csv,
		Config: BuildConfig{
			Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40),
			Geometry: "spatiotemporal", TemporalWeight: f64(0.02),
		},
	})
	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/st", "", &sum); code != http.StatusOK {
		t.Fatalf("GET /v1/models/st = %d", code)
	}
	if sum.Geometry != "spatiotemporal" || sum.TemporalWeight != 0.02 {
		t.Fatalf("summary geometry %q wt %v", sum.Geometry, sum.TemporalWeight)
	}
	if sum.Clusters == 0 {
		t.Fatal("spatiotemporal build found no clusters")
	}

	// Snapshot out, snapshot in under a new name.
	resp, err := http.Get(ts.URL + "/v1/models/st/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot export = %d, %v", resp.StatusCode, err)
	}
	putReq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/st-clone/snapshot", bytes.NewReader(snap))
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot import = %d", putResp.StatusCode)
	}

	// The clone serves the same geometry and classifies timed uploads
	// bit-identically to the original.
	var probes bytes.Buffer
	if err := trackio.WriteCSV(&probes, synth.TimedCorridorScene(2, 6, 20, 4, 17, 60, 10)); err != nil {
		t.Fatal(err)
	}
	classify := func(model string) []service.Assignment {
		var out struct {
			Results []service.Assignment `json:"results"`
		}
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/"+model+"/classify", probes.String(), &out); code != http.StatusOK {
			t.Fatalf("classify %s = %d", model, code)
		}
		return out.Results
	}
	want, got := classify("st"), classify("st-clone")
	if len(want) == 0 || len(want) != len(got) {
		t.Fatalf("assignments: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if got[i].Cluster != want[i].Cluster ||
			math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) ||
			got[i].Err != want[i].Err {
			t.Fatalf("probe %d: clone classified (%d, %x, %q), original (%d, %x, %q)", i,
				got[i].Cluster, math.Float64bits(got[i].Distance), got[i].Err,
				want[i].Cluster, math.Float64bits(want[i].Distance), want[i].Err)
		}
	}

	// Classifying a spatiotemporal model with plain 3-column CSV is a 400:
	// the timed decode needs the timestamp column.
	_, spatialCSV := trainingCSV(t)
	var e envelope
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/st/classify", spatialCSV, &e); code != http.StatusBadRequest {
		t.Fatalf("spatial classify against timed model = %d", code)
	}
	if !strings.Contains(e.Message, "timestamp") {
		t.Fatalf("error message %q does not mention the timestamp column", e.Message)
	}
}

// TestV1GeometryParamErrors pins the typed rejections: unknown geometry
// names, wt without spatiotemporal, and a spatiotemporal build fed spatial
// CSV.
func TestV1GeometryParamErrors(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	_, spatialCSV := trainingCSV(t)

	post := func(req BuildRequest) (int, envelope) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var e envelope
		return doJSON(t, http.MethodPost, ts.URL+"/v1/models", string(body), &e), e
	}
	base := BuildConfig{Eps: f64(30), MinLns: f64(6), CostAdvantage: f64(15), MinSegmentLength: f64(40)}

	cfg := base
	cfg.Geometry = "hyperbolic"
	if code, e := post(BuildRequest{Name: "bad", Data: spatialCSV, Config: cfg}); code != http.StatusBadRequest || e.Code != "invalid_config" {
		t.Fatalf("unknown geometry = %d %q", code, e.Code)
	}

	cfg = base
	cfg.TemporalWeight = f64(0.5) // wt without geometry=spatiotemporal
	if code, e := post(BuildRequest{Name: "bad", Data: spatialCSV, Config: cfg}); code != http.StatusBadRequest || e.Code != "invalid_config" {
		t.Fatalf("wt without spatiotemporal = %d %q", code, e.Code)
	}

	cfg = base
	cfg.Geometry = "spatiotemporal"
	if code, e := post(BuildRequest{Name: "bad", Data: spatialCSV, Config: cfg}); code != http.StatusBadRequest {
		t.Fatalf("spatiotemporal build on 3-column CSV = %d %q", code, e.Code)
	}
}
