package main

// Endpoint tests for the multi-ε queries: the sweep curve's shape and
// defaults, the clusters-at-ε reconstruction agreeing with the model's own
// build, the table of 400 paths behind the invalid_config envelope, and
// the 422 for models that carry no merge structure (v1 snapshots).

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/service"
	"repro/internal/synth"

	traclus "repro"
)

func buildSweepModel(t *testing.T, ts string) service.Summary {
	t.Helper()
	_, csv := trainingCSV(t)
	cfg := buildCfg()
	v1Build(t, ts, BuildRequest{
		Name: "sweepable", Data: csv,
		Config: BuildConfig{
			Eps: &cfg.Eps, MinLns: &cfg.MinLns,
			CostAdvantage: &cfg.CostAdvantage, MinSegmentLength: &cfg.MinSegmentLength,
		},
	})
	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts+"/v1/models/sweepable", "", &sum); code != http.StatusOK {
		t.Fatalf("GET model = %d", code)
	}
	return sum
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	sum := buildSweepModel(t, ts.URL)

	var resp sweepResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/sweepable/sweep", "", &resp); code != http.StatusOK {
		t.Fatalf("GET sweep = %d", code)
	}
	if resp.Steps != defaultSweepSteps || len(resp.Points) != defaultSweepSteps {
		t.Fatalf("default sweep returned %d/%d points", resp.Steps, len(resp.Points))
	}
	if resp.Lo != sum.Eps/2 || resp.Hi != 2*sum.Eps {
		t.Fatalf("default range [%g, %g], want [%g, %g]", resp.Lo, resp.Hi, sum.Eps/2, 2*sum.Eps)
	}
	if got := resp.Points[0].Eps; got != resp.Lo {
		t.Errorf("first point at %g, want lo %g", got, resp.Lo)
	}
	if got := resp.Points[len(resp.Points)-1].Eps; got != resp.Hi {
		t.Errorf("last point at %g, want hi %g", got, resp.Hi)
	}
	for _, p := range resp.Points {
		if p.QMeasure != p.TotalSSE+p.NoisePenalty {
			t.Errorf("eps=%g: q_measure %g ≠ sse %g + penalty %g", p.Eps, p.QMeasure, p.TotalSSE, p.NoisePenalty)
		}
		if p.NoiseFraction < 0 || p.NoiseFraction > 1 {
			t.Errorf("eps=%g: noise fraction %g", p.Eps, p.NoiseFraction)
		}
	}

	// An explicit range lands exactly on its bounds and step count.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/sweepable/sweep?lo=10&hi=50&steps=5", "", &resp); code != http.StatusOK {
		t.Fatalf("GET sweep explicit = %d", code)
	}
	if len(resp.Points) != 5 || resp.Points[0].Eps != 10 || resp.Points[4].Eps != 50 {
		t.Fatalf("explicit sweep = %+v", resp.Points)
	}
}

// TestClustersAtMatchesBuild cuts the (lazily built) dendrogram at the
// model's own ε and must land exactly on the clustering the build
// produced: same cluster count, noise, and removed count as the summary.
func TestClustersAtMatchesBuild(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	sum := buildSweepModel(t, ts.URL)

	var cut service.CutResult
	url := fmt.Sprintf("%s/v1/models/sweepable/clusters?eps=%g", ts.URL, sum.Eps)
	if code := doJSON(t, http.MethodGet, url, "", &cut); code != http.StatusOK {
		t.Fatalf("GET clusters = %d", code)
	}
	if len(cut.Clusters) != sum.Clusters {
		t.Errorf("cut found %d clusters, build found %d", len(cut.Clusters), sum.Clusters)
	}
	if cut.NoiseSegments != sum.NoiseSegments {
		t.Errorf("cut noise %d, build noise %d", cut.NoiseSegments, sum.NoiseSegments)
	}
	if cut.RemovedClusters != sum.RemovedClusters {
		t.Errorf("cut removed %d, build removed %d", cut.RemovedClusters, sum.RemovedClusters)
	}
	if cut.TotalSegments != sum.TotalSegments {
		t.Errorf("cut segments %d, build segments %d", cut.TotalSegments, sum.TotalSegments)
	}
	for _, c := range cut.Clusters {
		if c.Segments == 0 || len(c.Trajectories) == 0 {
			t.Errorf("cluster %d empty: %+v", c.Cluster, c)
		}
	}

	// Omitting eps defaults to the model's own ε — same cut.
	var def service.CutResult
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/sweepable/clusters", "", &def); code != http.StatusOK {
		t.Fatalf("GET clusters default = %d", code)
	}
	if def.Eps != sum.Eps || len(def.Clusters) != len(cut.Clusters) {
		t.Errorf("default-eps cut differs: eps %g, %d clusters", def.Eps, len(def.Clusters))
	}
}

// TestSweepValidation is the table of 400 paths: every malformed or
// out-of-range parameter answers the /v1 error envelope with the right
// machine code and never a 500.
func TestSweepValidation(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	buildSweepModel(t, ts.URL)

	cases := []struct {
		name  string
		query string
		code  string
	}{
		{"lo equals hi", "/sweep?lo=10&hi=10", codeInvalidConfig},
		{"lo above hi", "/sweep?lo=50&hi=10", codeInvalidConfig},
		{"zero lo", "/sweep?lo=0&hi=10", codeInvalidConfig},
		{"negative lo", "/sweep?lo=-4&hi=10", codeInvalidConfig},
		{"NaN lo", "/sweep?lo=NaN&hi=10", codeInvalidConfig},
		{"infinite hi", "/sweep?lo=5&hi=Inf", codeInvalidConfig},
		{"negative hi", "/sweep?lo=5&hi=-10", codeInvalidConfig},
		{"steps below floor", "/sweep?lo=5&hi=50&steps=1", codeInvalidConfig},
		{"steps above cap", "/sweep?lo=5&hi=50&steps=4097", codeInvalidConfig},
		{"unparsable lo", "/sweep?lo=abc&hi=10", codeInvalidRequest},
		{"unparsable hi", "/sweep?lo=5&hi=xyz", codeInvalidRequest},
		{"unparsable steps", "/sweep?lo=5&hi=50&steps=many", codeInvalidRequest},
		{"zero eps cut", "/clusters?eps=0", codeInvalidConfig},
		{"negative eps cut", "/clusters?eps=-3", codeInvalidConfig},
		{"NaN eps cut", "/clusters?eps=NaN", codeInvalidConfig},
		{"infinite eps cut", "/clusters?eps=Inf", codeInvalidConfig},
		{"unparsable eps cut", "/clusters?eps=wide", codeInvalidRequest},
	}
	for _, tc := range cases {
		var env envelope
		code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/sweepable"+tc.query, "", &env)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
			continue
		}
		if env.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, env.Code, tc.code)
		}
		if env.Message == "" {
			t.Errorf("%s: envelope %+v missing message", tc.name, env)
		}
	}
}

func TestSweepUnknownModel(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	var env envelope
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/ghost/sweep", "", &env); code != http.StatusNotFound {
		t.Fatalf("sweep on unknown model = %d", code)
	}
	if env.Code != codeNotFound {
		t.Fatalf("code %q, want %q", env.Code, codeNotFound)
	}
}

// TestSweepV1SnapshotNoDendrogram imports the frozen format-v1 golden
// snapshot — which carries no merge structure and no training geometry to
// rebuild one from — and pins the sweep answer: 422 no_dendrogram, not a
// crash and not a silent empty curve.
func TestSweepV1SnapshotNoDendrogram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "snapshot", "testdata", "golden", "v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, serverConfig{})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/legacy/snapshot", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("importing v1 snapshot = %d", resp.StatusCode)
	}
	for _, path := range []string{"/v1/models/legacy/sweep", "/v1/models/legacy/clusters?eps=20"} {
		var env envelope
		if code := doJSON(t, http.MethodGet, ts.URL+path, "", &env); code != http.StatusUnprocessableEntity {
			t.Errorf("%s = %d, want 422", path, code)
			continue
		}
		if env.Code != codeNoDendrogram {
			t.Errorf("%s: code %q, want %q", path, env.Code, codeNoDendrogram)
		}
	}
}

// TestV1ReadsMatchResult is the daemon row of the service ≡ library matrix
// (internal/service's TestReadsMatchLibraryMatrix, on the same data): for
// each geometry, at the build and after each of three one-trajectory
// appends over /v1, GET …/clusters?eps=ε finds the epoch Result's cluster
// and noise counts, and the first point of GET …/sweep?lo=ε&hi=2ε&steps=2
// reads Result().QMeasure() bit for bit — the JSON encoder writes the
// shortest float text that round-trips, so the bits survive the wire.
func TestV1ReadsMatchResult(t *testing.T) {
	hcfg := synth.DefaultHurricaneConfig()
	hcfg.NumTracks, hcfg.Seed = 103, 3
	planar := synth.Hurricanes(hcfg)
	rush := synth.RushHours(12, 24, 4, 3, 30, 10, 5000)
	for i, tr := range synth.RushHours(2, 24, 4, 9, 30, 10, 5000)[:3] {
		tr.ID = 1000 + i
		rush = append(rush, tr)
	}
	gps := synth.GPSTracks(3, 8, 25, 7)
	for i, tr := range synth.GPSTracks(3, 1, 25, 19) {
		tr.ID = 1000 + i
		gps = append(gps, tr)
	}
	spatiotemporal := corridorConfig()
	spatiotemporal.Geometry, spatiotemporal.TemporalWeight = "spatiotemporal", f64(0.05)
	geodesic := BuildConfig{Eps: f64(150), MinLns: f64(5), MinSegmentLength: f64(100), Geometry: "geodesic"}
	geos := []struct {
		name string
		cfg  BuildConfig
		trs  []traclus.Trajectory // the build, then three appended trajectories
	}{
		{"planar", corridorConfig(), planar},
		{"spatiotemporal", spatiotemporal, rush},
		{"geodesic", geodesic, gps},
	}

	s, ts := testServer(t, serverConfig{workers: 2})
	for _, g := range geos {
		n := len(g.trs) - 3
		v1Build(t, ts.URL, BuildRequest{Name: g.name, Data: csvOf(t, g.trs[:n]...), Config: g.cfg})
		for epoch := 0; ; epoch++ {
			what := fmt.Sprintf("%s/epoch %d", g.name, epoch)
			m, ok, err := s.store.Get(g.name)
			if err != nil || !ok {
				t.Fatalf("%s: model not resident (ok=%v err=%v)", what, ok, err)
			}
			res, eps := m.Result(), m.Summary().Eps
			lo, hi := strconv.FormatFloat(eps, 'g', -1, 64), strconv.FormatFloat(2*eps, 'g', -1, 64)
			base := ts.URL + "/v1/models/" + g.name

			var cut service.CutResult
			if code := doJSON(t, http.MethodGet, base+"/clusters?eps="+lo, "", &cut); code != http.StatusOK {
				t.Fatalf("%s: GET clusters = %d", what, code)
			}
			if len(cut.Clusters) != len(res.Clusters) || cut.NoiseSegments != res.NoiseSegments {
				t.Errorf("%s: clusters?eps=%s found %d clusters and %d noise segments, the Result %d and %d",
					what, lo, len(cut.Clusters), cut.NoiseSegments, len(res.Clusters), res.NoiseSegments)
			}
			var sweep sweepResponse
			if code := doJSON(t, http.MethodGet, base+"/sweep?lo="+lo+"&hi="+hi+"&steps=2", "", &sweep); code != http.StatusOK {
				t.Fatalf("%s: GET sweep = %d", what, code)
			}
			if q := res.QMeasure(); len(sweep.Points) == 0 || math.Float64bits(sweep.Points[0].QMeasure) != math.Float64bits(q) {
				t.Errorf("%s: sweep at ε %s = %+v, the Result's QMeasure %v", what, lo, sweep.Points, q)
			}
			if epoch == 3 {
				if len(res.Clusters) == 0 {
					t.Errorf("%s: no clusters; the scene exercises nothing", g.name)
				}
				break
			}
			var sum service.Summary
			if code := postAppend(t, ts.URL, g.name, AppendRequest{Data: csvOf(t, g.trs[n+epoch])}, &sum); code != http.StatusOK || sum.Epoch != int64(epoch+1) {
				t.Fatalf("%s: append = %d at epoch %d", what, code, sum.Epoch)
			}
		}
	}
}

// TestSweepEndsOnHi: a valid range whose last grid point used to round one
// ulp above hi — past the dendrogram the sweep builds to hi — answers 200
// with its last point on hi, not 400 invalid_config.
func TestSweepEndsOnHi(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	buildSweepModel(t, ts.URL)
	var resp sweepResponse
	url := ts.URL + "/v1/models/sweepable/sweep?lo=13.817455711021298&hi=71.26576308408835&steps=10"
	if code := doJSON(t, http.MethodGet, url, "", &resp); code != http.StatusOK {
		t.Fatalf("GET sweep = %d", code)
	}
	if len(resp.Points) != 10 || resp.Points[9].Eps != 71.26576308408835 {
		t.Fatalf("sweep points %+v, want 10 ending on hi", resp.Points)
	}
}
