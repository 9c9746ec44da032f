package main

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"testing"

	"repro/internal/service"
	"repro/internal/synth"

	traclus "repro"
)

// TestV1UploadsValidatedBeforeWork: under every geometry, a build or append
// upload that holds a one-point trajectory, a NaN coordinate or — with the
// timestamp column — an infinite time answers 400 invalid_request
// synchronously: no build job starts, and the model stays at its epoch.
func TestV1UploadsValidatedBeforeWork(t *testing.T) {
	s, ts := testServer(t, serverConfig{workers: 2})
	cfg := BuildConfig{Eps: f64(30), MinLns: f64(6), CostAdvantage: f64(15), MinSegmentLength: f64(40)}
	geos := []struct {
		name string
		cfg  BuildConfig
		good []traclus.Trajectory
	}{
		{"planar", cfg, synth.CorridorScene(2, 10, 24, 4, 11)},
		{"spatiotemporal", BuildConfig{Eps: cfg.Eps, MinLns: cfg.MinLns, CostAdvantage: cfg.CostAdvantage,
			MinSegmentLength: cfg.MinSegmentLength, Geometry: "spatiotemporal", TemporalWeight: f64(0.02)},
			synth.TimedCorridorScene(2, 10, 24, 4, 11, 60, 10)},
		{"geodesic", BuildConfig{Eps: f64(150), MinLns: f64(5), MinSegmentLength: f64(100), Geometry: "geodesic"},
			synth.GPSTracks(3, 8, 25, 7)},
	}
	for _, g := range geos {
		v1Build(t, ts.URL, BuildRequest{Name: g.name, Data: csvOf(t, g.good...), Config: g.cfg})
		defects := map[string]func(tr *traclus.Trajectory){
			"one point": func(tr *traclus.Trajectory) {
				tr.Points = tr.Points[:1]
				if tr.Times != nil {
					tr.Times = tr.Times[:1]
				}
			},
			"NaN coordinate": func(tr *traclus.Trajectory) { tr.Points[2].X = math.NaN() },
		}
		if g.good[0].Times != nil {
			defects["t = Inf"] = func(tr *traclus.Trajectory) { tr.Times[len(tr.Times)-1] = math.Inf(1) }
		}
		for what, mutate := range defects {
			bad := slices.Clone(g.good)
			for i := range bad {
				bad[i].ID += 5000
			}
			bad[0].Points = slices.Clone(bad[0].Points)
			bad[0].Times = slices.Clone(bad[0].Times)
			mutate(&bad[0])
			jobs := s.jobs.Len()

			body, err := json.Marshal(BuildRequest{Name: g.name + "-bad", Data: csvOf(t, bad...), Config: g.cfg})
			if err != nil {
				t.Fatal(err)
			}
			var env envelope
			if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models", string(body), &env); code != http.StatusBadRequest || env.Code != codeInvalidRequest {
				t.Errorf("%s build with %s = %d %q, want 400 %s", g.name, what, code, env.Code, codeInvalidRequest)
			}
			env = envelope{}
			if code := postAppend(t, ts.URL, g.name, AppendRequest{Data: csvOf(t, bad[0])}, &env); code != http.StatusBadRequest || env.Code != codeInvalidRequest {
				t.Errorf("%s append with %s = %d %q, want 400 %s", g.name, what, code, env.Code, codeInvalidRequest)
			}
			if n := s.jobs.Len(); n != jobs {
				t.Errorf("%s upload with %s started %d jobs", g.name, what, n-jobs)
			}
		}
		var sum service.Summary
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/"+g.name, "", &sum); code != http.StatusOK || sum.Epoch != 0 {
			t.Errorf("%s model after the rejected appends: %d, epoch %d, want 200 at epoch 0", g.name, code, sum.Epoch)
		}
	}
}

// TestV1GeodesicInputRule: a geodesic upload with a point outside
// |latitude| ≤ 90, |longitude| ≤ 360 degrees — tracks moved to latitude
// ≈ 100, or one track spanning longitude ±1e306 — answers a build 400
// invalid_config synchronously, fixed ε or auto, with no job started; and
// an append 422 geometry_mismatch, with the model left at epoch 0.
func TestV1GeodesicInputRule(t *testing.T) {
	s, ts := testServer(t, serverConfig{workers: 2})
	cfg := BuildConfig{Eps: f64(150), MinLns: f64(5), MinSegmentLength: f64(100), Geometry: "geodesic"}
	good := synth.GPSTracks(3, 8, 25, 7)
	v1Build(t, ts.URL, BuildRequest{Name: "geo", Data: csvOf(t, good...), Config: cfg})

	north := slices.Clone(good)
	for i := range north {
		north[i].ID += 5000
		north[i].Points = slices.Clone(north[i].Points)
		for k := range north[i].Points {
			north[i].Points[k].Y += 52.5
		}
	}
	wide := slices.Clone(good)
	wide[0].ID += 5000
	wide[0].Points = slices.Clone(wide[0].Points)
	wide[0].Points[0].X, wide[0].Points[len(wide[0].Points)-1].X = -1e306, 1e306
	auto := cfg
	auto.Eps, auto.MinLns, auto.Auto = nil, nil, &AutoRange{Lo: f64(100), Hi: f64(2000)}

	for what, req := range map[string]BuildRequest{
		"latitude 100":           {Name: "geo-north", Data: csvOf(t, north...), Config: cfg},
		"longitude ±1e306":       {Name: "geo-wide", Data: csvOf(t, wide...), Config: cfg},
		"auto, latitude 100":     {Name: "geo-north-auto", Data: csvOf(t, north...), Config: auto},
		"auto, longitude ±1e306": {Name: "geo-wide-auto", Data: csvOf(t, wide...), Config: auto},
	} {
		jobs := s.jobs.Len()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models", string(body), &env); code != http.StatusBadRequest || env.Code != codeInvalidConfig {
			t.Errorf("build with %s = %d %q, want 400 %s", what, code, env.Code, codeInvalidConfig)
		}
		if n := s.jobs.Len(); n != jobs {
			t.Errorf("build with %s started %d jobs", what, n-jobs)
		}
	}
	for what, tr := range map[string]traclus.Trajectory{"latitude 100": north[0], "longitude ±1e306": wide[0]} {
		var env envelope
		if code := postAppend(t, ts.URL, "geo", AppendRequest{Data: csvOf(t, tr)}, &env); code != http.StatusUnprocessableEntity || env.Code != codeGeometryBad {
			t.Errorf("append with %s = %d %q, want 422 %s", what, code, env.Code, codeGeometryBad)
		}
	}
	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/geo", "", &sum); code != http.StatusOK || sum.Epoch != 0 {
		t.Errorf("model after the rejected appends: %d, epoch %d, want 200 at epoch 0", code, sum.Epoch)
	}
}
