package main

// Tests of the /v1 surface: the JSON BuildRequest (strict decode, no
// silent defaults), the typed error envelope, and snapshot export/import
// over HTTP including the rejection paths for corrupt, truncated, and
// future-version snapshots.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/synth"

	traclus "repro"
)

func synthTraining() []traclus.Trajectory { return synth.CorridorScene(2, 10, 24, 4, 11) }

func buildCfg() traclus.Config {
	return traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}
}

// blockingBuildConfig injects a builder that parks until release closes,
// so tests can pin behaviour against a definitely-in-flight build.
func blockingBuildConfig(started, release chan struct{}) serverConfig {
	return serverConfig{
		maxBuilds: 4,
		buildModel: func(ctx context.Context, name string, trs []traclus.Trajectory, c traclus.Config, _ *service.EstimateRange, _ func(string, float64)) (*service.Model, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return service.BuildCtx(context.Background(), name, trs, c, nil, nil)
		},
	}
}

// envelope mirrors apiError for decoding in tests.
type envelope struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details"`
}

// postBuild posts req to POST /v1/models and decodes the answer into out
// (nil skips decoding).
func postBuild(t *testing.T, ts string, req BuildRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return doJSON(t, http.MethodPost, ts+"/v1/models", string(body), out)
}

func v1Build(t *testing.T, ts string, req BuildRequest) service.Job {
	t.Helper()
	var job service.Job
	if code := postBuild(t, ts, req, &job); code != http.StatusAccepted {
		t.Fatalf("POST /v1/models = %d", code)
	}
	if done := awaitJob(t, ts, job.ID); done.State != service.JobDone {
		t.Fatalf("v1 build finished as %s: %s", done.State, done.Error)
	}
	return job
}

func f64(v float64) *float64 { return &v }

// fixedConfig is the minimal fixed-ε build config: ε 30, MinLns 6.
func fixedConfig() BuildConfig { return BuildConfig{Eps: f64(30), MinLns: f64(6)} }

// corridorConfig is buildCfg as a request: the parameters that split the
// training scene into its two corridors.
func corridorConfig() BuildConfig {
	return BuildConfig{Eps: f64(30), MinLns: f64(6), CostAdvantage: f64(15), MinSegmentLength: f64(40)}
}

// TestV1BuildClassify is the v1 end-to-end: JSON build request, /v1 job
// polling, summary, classify — all on versioned routes.
func TestV1BuildClassify(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	_, csv := trainingCSV(t)

	v1Build(t, ts.URL, BuildRequest{
		Name: "v1model",
		Data: csv,
		Config: BuildConfig{
			Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40),
		},
	})
	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/v1model", "", &sum); code != http.StatusOK {
		t.Fatalf("GET /v1/models/v1model = %d", code)
	}
	if sum.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2", sum.Clusters)
	}
	var classifyResp struct {
		Results []service.Assignment `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/v1model/classify", csv, &classifyResp); code != http.StatusOK {
		t.Fatalf("POST /v1 classify = %d", code)
	}
	if len(classifyResp.Results) == 0 {
		t.Fatal("no classify results")
	}
	var list struct {
		Models []string `json:"models"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models", "", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/models = %d", code)
	}
	if len(list.Models) != 1 || list.Models[0] != "v1model" {
		t.Fatalf("model list = %v", list.Models)
	}
}

// buildValidationCase is one body POST /v1/models must refuse with 400
// and the given envelope code.
type buildValidationCase struct {
	name     string
	body     string
	wantCode string
}

// buildValidationCases is TestV1BuildValidation's table over the training
// CSV; FuzzV1Requests seeds its corpus with the same bodies.
func buildValidationCases(csv string) []buildValidationCase {
	esc, _ := json.Marshal(csv)
	return []buildValidationCase{
		{"not json", "eps=30", codeInvalidRequest},
		{"unknown field", `{"name":"m","data":"x","epsilon":30}`, codeInvalidRequest},
		{"missing name", fmt.Sprintf(`{"data":%s,"config":{"eps":30,"min_lns":6}}`, esc), codeInvalidRequest},
		{"bad name", fmt.Sprintf(`{"name":"../etc","data":%s,"config":{"eps":30,"min_lns":6}}`, esc), codeInvalidRequest},
		{"no eps (silent default refused)", fmt.Sprintf(`{"name":"m","data":%s,"config":{"min_lns":6}}`, esc), codeInvalidRequest},
		{"no min_lns", fmt.Sprintf(`{"name":"m","data":%s,"config":{"eps":30}}`, esc), codeInvalidRequest},
		{"empty config", fmt.Sprintf(`{"name":"m","data":%s}`, esc), codeInvalidRequest},
		{"negative eps", fmt.Sprintf(`{"name":"m","data":%s,"config":{"eps":-1,"min_lns":6}}`, esc), codeInvalidConfig},
		{"unknown index", fmt.Sprintf(`{"name":"m","data":%s,"config":{"eps":30,"min_lns":6,"index":"kdtree"}}`, esc), codeInvalidConfig},
		{"bad format", fmt.Sprintf(`{"name":"m","data":%s,"format":"parquet","config":{"eps":30,"min_lns":6}}`, esc), codeInvalidRequest},
		{"empty data", `{"name":"m","data":"","config":{"eps":30,"min_lns":6}}`, codeInvalidRequest},
		{"explicit zero auto lo", fmt.Sprintf(`{"name":"m","data":%s,"config":{"auto":{"lo":0,"hi":50}}}`, esc), codeInvalidRequest},
		{"auto hi past MaxFloat64/2", fmt.Sprintf(`{"name":"m","data":%s,"config":{"auto":{"lo":5,"hi":1e308}}}`, esc), codeInvalidRequest},
		{"negative min_trajs", fmt.Sprintf(`{"name":"m","data":%s,"config":{"eps":30,"min_lns":6,"min_trajs":-2}}`, esc), codeInvalidConfig},
		{"malformed data", `{"name":"m","data":"traj_id,x,y\n1,2\n","config":{"eps":30,"min_lns":6}}`, codeInvalidRequest},
		{"non-numeric data", `{"name":"m","data":"traj_id,x,y\n1,a,b\n","config":{"eps":30,"min_lns":6}}`, codeInvalidRequest},
	}
}

// TestV1BuildValidation pins the strict-request contract: unknown fields,
// missing parameters (no silent defaults), and bad names all answer 400
// with the machine-readable envelope.
func TestV1BuildValidation(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)
	esc, _ := json.Marshal(csv)

	for _, tc := range buildValidationCases(csv) {
		var e envelope
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/models", tc.body, &e)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
			continue
		}
		if e.Code != tc.wantCode {
			t.Errorf("%s: code = %q, want %q (message %q)", tc.name, e.Code, tc.wantCode, e.Message)
		}
		if e.Message == "" {
			t.Errorf("%s: no message in the envelope", tc.name)
		}
	}

	// The invalid_config envelope carries structured details.
	var e envelope
	doJSON(t, http.MethodPost, ts.URL+"/v1/models",
		fmt.Sprintf(`{"name":"m","data":%s,"config":{"eps":-1,"min_lns":6}}`, esc), &e)
	if e.Details["field"] != "Eps" {
		t.Errorf("invalid_config details = %v, want field Eps", e.Details)
	}
}

// TestV1AutoEstimation: the consolidated auto object with presence
// semantics — absent bounds derive from the extent, explicit bounds
// survive.
func TestV1AutoEstimation(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)
	v1Build(t, ts.URL, BuildRequest{
		Name: "auto",
		Data: csv,
		Config: BuildConfig{
			Auto:          &AutoRange{Lo: f64(5), Hi: f64(60)},
			CostAdvantage: f64(15), MinSegmentLength: f64(40),
		},
	})
	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/auto", "", &sum); code != http.StatusOK {
		t.Fatalf("GET auto model = %d", code)
	}
	if !(sum.Eps >= 5 && sum.Eps <= 60) {
		t.Errorf("estimated eps %v outside requested [5, 60]", sum.Eps)
	}
}

// TestV1ErrorEnvelopeStatuses pins the code ↔ status map on live
// endpoints: 404 not_found, 413 too_large, 429 too_many_builds.
func TestV1ErrorEnvelopeStatuses(t *testing.T) {
	_, ts := testServer(t, serverConfig{maxBody: 64})
	var e envelope
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/ghost", "", &e); code != http.StatusNotFound || e.Code != codeNotFound {
		t.Errorf("missing model: %d %q, want 404 not_found", code, e.Code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999", "", &e); code != http.StatusNotFound || e.Code != codeNotFound {
		t.Errorf("missing job: %d %q, want 404 not_found", code, e.Code)
	}
	big := strings.Repeat("x", 1024)
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models", big, &e); code != http.StatusRequestEntityTooLarge || e.Code != codeTooLarge {
		t.Errorf("oversize body: %d %q, want 413 too_large", code, e.Code)
	}
}

// TestV1SnapshotExportImport is the HTTP snapshot round trip: export a
// built model, delete it, import the bytes back (under a new name too),
// and classify identically.
func TestV1SnapshotExportImport(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 1})
	_, csv := trainingCSV(t)
	v1Build(t, ts.URL, BuildRequest{
		Name: "exportee",
		Data: csv,
		Config: BuildConfig{Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40)},
	})

	resp, err := http.Get(ts.URL + "/v1/models/exportee/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export = %d, %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "vnd.traclus.snapshot") {
		t.Errorf("export Content-Type = %q", ct)
	}
	if _, err := snapshot.Decode(data); err != nil {
		t.Fatalf("exported bytes do not decode: %v", err)
	}

	// Import under a different name; the path decides identity.
	putReq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/clone/snapshot", bytes.NewReader(data))
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("import = %d", putResp.StatusCode)
	}
	var orig, clone struct {
		Results []service.Assignment `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/exportee/classify", csv, &orig); code != http.StatusOK {
		t.Fatalf("classify original = %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/clone/classify", csv, &clone); code != http.StatusOK {
		t.Fatalf("classify clone = %d", code)
	}
	for i := range orig.Results {
		if orig.Results[i] != clone.Results[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, orig.Results[i], clone.Results[i])
		}
	}
}

// TestV1SnapshotRejections pins the typed 422s: corrupt bytes, a truncated
// snapshot, and a future format version are each rejected with their code
// — and the daemon stays alive.
func TestV1SnapshotRejections(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 1})
	_, csv := trainingCSV(t)
	v1Build(t, ts.URL, BuildRequest{
		Name: "donor",
		Data: csv,
		Config: BuildConfig{Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40)},
	})
	resp, err := http.Get(ts.URL + "/v1/models/donor/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	valid, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	put := func(name string, body []byte) (int, envelope) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/"+name+"/snapshot", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e envelope
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}

	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)-1] ^= 0x40
	if code, e := put("c1", corrupt); code != http.StatusUnprocessableEntity || e.Code != codeInvalidSnapshot {
		t.Errorf("corrupt import = %d %q, want 422 invalid_snapshot", code, e.Code)
	}
	if code, e := put("c2", valid[:len(valid)/3]); code != http.StatusUnprocessableEntity || e.Code != codeInvalidSnapshot {
		t.Errorf("truncated import = %d %q, want 422 invalid_snapshot", code, e.Code)
	}
	future := bytes.Clone(valid)
	future[8], future[9] = 0xEE, 0xFF // format version little-endian
	if code, e := put("c3", future); code != http.StatusUnprocessableEntity || e.Code != codeSnapshotVersion {
		t.Errorf("future-version import = %d %q, want 422 %s", code, e.Code, codeSnapshotVersion)
	} else if e.Details["supported"] == nil {
		t.Errorf("version envelope has no supported detail: %v", e.Details)
	}
	if code, _ := put(".hidden", valid); code != http.StatusBadRequest {
		t.Errorf("bad import name = %d, want 400", code)
	}
	// The daemon still serves after every rejection.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", "", nil); code != http.StatusOK {
		t.Fatalf("healthz after rejections = %d", code)
	}
}

// TestV1SnapshotPutConflict: importing over a name whose build is in
// flight answers 409 conflict.
func TestV1SnapshotPutConflict(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	_, ts := testServer(t, blockingBuildConfig(started, release))
	_, csv := trainingCSV(t)

	var job service.Job
	if code := postBuild(t, ts.URL, BuildRequest{Name: "busy", Data: csv, Config: fixedConfig()}, &job); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	<-started

	// A valid snapshot from a second server: build one synchronously.
	m, err := service.BuildCtx(context.Background(), "busy", synthTraining(), buildCfg(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/busy/snapshot", bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e envelope
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || e.Code != codeConflict {
		t.Fatalf("import over in-flight build = %d %q, want 409 conflict", resp.StatusCode, e.Code)
	}
	close(release)
	awaitJob(t, ts.URL, job.ID)
}
