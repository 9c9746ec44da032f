package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/trackio"

	traclus "repro"
)

func trainingCSV(t testing.TB) ([]traclus.Trajectory, string) {
	t.Helper()
	trs := synth.CorridorScene(2, 10, 24, 4, 11)
	var buf bytes.Buffer
	if err := trackio.WriteCSV(&buf, trs); err != nil {
		t.Fatal(err)
	}
	return trs, buf.String()
}

func csvOf(t testing.TB, trs ...traclus.Trajectory) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trackio.WriteCSV(&buf, trs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func awaitJob(t *testing.T, base, id string) service.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var job service.Job
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "", &job); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d", id, code)
		}
		if job.State != service.JobRunning {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.Job{}
}

// TestBuildClassifyRoundTrip is the end-to-end serving scenario: upload a
// training set, poll the async build job, read the model summary, then
// classify training trajectories back into their own clusters.
func TestBuildClassifyRoundTrip(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	trs, csv := trainingCSV(t)

	var job service.Job
	code := postBuild(t, ts.URL, BuildRequest{Name: "corridors", Data: csv, Config: corridorConfig()}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/models = %d", code)
	}
	if done := awaitJob(t, ts.URL, job.ID); done.State != service.JobDone {
		t.Fatalf("job finished as %s: %s", done.State, done.Error)
	}

	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/corridors", "", &sum); code != http.StatusOK {
		t.Fatalf("GET /v1/models/corridors = %d", code)
	}
	if sum.Clusters != 2 {
		t.Fatalf("summary clusters = %d, want 2", sum.Clusters)
	}
	if len(sum.ClusterStats) != 2 {
		t.Fatalf("summary has %d cluster stats, want 2", len(sum.ClusterStats))
	}

	// Classify two training trajectories, one per corridor: each must land
	// in its own cluster (checked against the authoritative in-process run).
	cfg := traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}
	res, err := traclus.New(traclus.WithConfig(cfg)).Run(context.Background(), trs)
	if err != nil {
		t.Fatal(err)
	}
	var classifyResp struct {
		Model   string               `json:"model"`
		Results []service.Assignment `json:"results"`
	}
	queries := []traclus.Trajectory{trs[0], trs[len(trs)-1]}
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/models/corridors/classify", csvOf(t, queries...), &classifyResp)
	if code != http.StatusOK {
		t.Fatalf("POST classify = %d", code)
	}
	if len(classifyResp.Results) != 2 {
		t.Fatalf("%d results, want 2", len(classifyResp.Results))
	}
	for i, a := range classifyResp.Results {
		if a.Err != "" {
			t.Fatalf("result %d: %s", i, a.Err)
		}
		want := -1
		for ci, c := range res.Clusters {
			for _, id := range c.Trajectories {
				if id == queries[i].ID {
					want = ci
				}
			}
		}
		if a.Cluster != want {
			t.Errorf("trajectory %d classified into %d, want its own cluster %d", a.TrajID, a.Cluster, want)
		}
	}
	if classifyResp.Results[0].Cluster == classifyResp.Results[1].Cluster {
		t.Error("trajectories from different corridors landed in the same cluster")
	}

	// Health reflects the cached model.
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", "", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, health)
	}
	if health.Models != 1 {
		t.Errorf("healthz models = %d, want 1", health.Models)
	}

	// Evict and observe the 404.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/models/corridors", "", nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/corridors", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET after delete = %d, want 404", code)
	}
}

// TestSingleFlightAndCacheHit verifies the acceptance criterion directly at
// the HTTP layer: N concurrent duplicate build requests run exactly one
// underlying build, and later builds of the same name are cache hits.
func TestSingleFlightAndCacheHit(t *testing.T) {
	var builds atomic.Int64
	release := make(chan struct{})
	cfg := serverConfig{
		workers:   1,
		maxBuilds: 16, // duplicates racing in before the entry exists may each take a slot
		buildModel: func(_ context.Context, name string, trs []traclus.Trajectory, c traclus.Config, _ *service.EstimateRange, _ func(string, float64)) (*service.Model, error) {
			builds.Add(1)
			<-release // hold the build so all duplicates overlap it
			return service.BuildCtx(context.Background(), name, trs, c, nil, nil)
		},
	}
	_, ts := testServer(t, cfg)
	_, csv := trainingCSV(t)

	const dup = 8
	jobs := make([]service.Job, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code := postBuild(t, ts.URL, BuildRequest{Name: "dup", Data: csv, Config: corridorConfig()}, &jobs[i]); code != http.StatusAccepted {
				t.Errorf("POST %d = %d", i, code)
			}
		}(i)
	}
	wg.Wait()
	for builds.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := range jobs {
		if done := awaitJob(t, ts.URL, jobs[i].ID); done.State != service.JobDone {
			t.Fatalf("job %d finished as %s: %s", i, done.State, done.Error)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d underlying builds for %d concurrent requests, want exactly 1", n, dup)
	}

	// A fresh request after completion is an explicit cache hit: 200 with
	// cached=true, no job, and no new build.
	var hit struct {
		Model  string `json:"model"`
		Cached bool   `json:"cached"`
	}
	if code := postBuild(t, ts.URL, BuildRequest{Name: "dup", Data: csv, Config: fixedConfig()}, &hit); code != http.StatusOK {
		t.Fatalf("POST after completion = %d, want 200 cache hit", code)
	}
	if !hit.Cached || hit.Model != "dup" {
		t.Fatalf("cache-hit response = %+v", hit)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("cache hit triggered build #%d", n)
	}
}

// TestBuildRequestValidation pins that validation runs before any build:
// every body POST /v1/models refuses starts no build and stores no model,
// and the typed config validation text reaches the client.
func TestBuildRequestValidation(t *testing.T) {
	var builds atomic.Int64
	_, ts := testServer(t, serverConfig{
		buildModel: func(ctx context.Context, name string, trs []traclus.Trajectory, c traclus.Config, est *service.EstimateRange, progress func(string, float64)) (*service.Model, error) {
			builds.Add(1)
			return service.BuildCtx(ctx, name, trs, c, est, progress)
		},
	})
	_, csv := trainingCSV(t)
	for _, tc := range buildValidationCases(csv) {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models", tc.body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("refused requests started %d builds", n)
	}
	var list struct {
		Models []string `json:"models"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models", "", &list); code != http.StatusOK || len(list.Models) != 0 {
		t.Errorf("model list after refused builds = %d %v, want 200 and none", code, list.Models)
	}

	// Typed validation text must surface to the client.
	esc, _ := json.Marshal(csv)
	var e envelope
	doJSON(t, http.MethodPost, ts.URL+"/v1/models",
		fmt.Sprintf(`{"name":"m","data":%s,"config":{"eps":-4,"min_lns":6}}`, esc), &e)
	if !strings.Contains(e.Message, "Eps") || !strings.Contains(e.Message, "must be positive") {
		t.Errorf("negative eps message %q does not carry the typed validation text", e.Message)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := testServer(t, serverConfig{maxBody: 64})
	_, csv := trainingCSV(t)
	if code := postBuild(t, ts.URL, BuildRequest{Name: "m", Data: csv, Config: fixedConfig()}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", code)
	}
	// The streaming-decoder point cap is a second 413 path, independent of
	// the byte cap.
	_, ts = testServer(t, serverConfig{maxPoints: 10})
	var e envelope
	if code := postBuild(t, ts.URL, BuildRequest{Name: "m", Data: csv, Config: fixedConfig()}, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over point cap = %d, want 413", code)
	}
	if !strings.Contains(e.Message, "exceeds 10 points") {
		t.Errorf("point-cap error = %q", e.Message)
	}
}

// TestBuildConcurrencyCap pins the 429 guard: once maxBuilds builds are in
// flight, further distinct-name builds are rejected instead of piling up
// unbounded clustering runs.
func TestBuildConcurrencyCap(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	_, ts := testServer(t, serverConfig{
		workers:   1,
		maxBuilds: 1,
		buildModel: func(_ context.Context, name string, trs []traclus.Trajectory, c traclus.Config, _ *service.EstimateRange, _ func(string, float64)) (*service.Model, error) {
			started <- struct{}{}
			<-release
			return service.BuildCtx(context.Background(), name, trs, c, nil, nil)
		},
	})
	_, csv := trainingCSV(t)
	var job service.Job
	a := BuildRequest{Name: "a", Data: csv, Config: fixedConfig()}
	b := BuildRequest{Name: "b", Data: csv, Config: fixedConfig()}
	if code := postBuild(t, ts.URL, a, &job); code != http.StatusAccepted {
		t.Fatalf("first build = %d", code)
	}
	<-started // the slot is definitely held
	var e envelope
	if code := postBuild(t, ts.URL, b, &e); code != http.StatusTooManyRequests {
		t.Fatalf("build past the cap = %d, want 429", code)
	}
	if !strings.Contains(e.Message, "too many builds") {
		t.Errorf("429 body = %q", e.Message)
	}
	// A duplicate of the in-flight name joins it instead of consuming a
	// slot, so it is accepted even at the cap.
	var dupJob service.Job
	if code := postBuild(t, ts.URL, a, &dupJob); code != http.StatusAccepted {
		t.Fatalf("duplicate of in-flight build = %d, want 202", code)
	}
	close(release)
	if done := awaitJob(t, ts.URL, dupJob.ID); done.State != service.JobDone {
		t.Fatalf("joined duplicate finished as %s: %s", done.State, done.Error)
	}
	if done := awaitJob(t, ts.URL, job.ID); done.State != service.JobDone {
		t.Fatalf("gated build finished as %s: %s", done.State, done.Error)
	}
	// The slot is free again.
	if code := postBuild(t, ts.URL, b, &job); code != http.StatusAccepted {
		t.Fatalf("build after release = %d, want 202", code)
	}
	if done := awaitJob(t, ts.URL, job.ID); done.State != service.JobDone {
		t.Fatalf("post-release build finished as %s: %s", done.State, done.Error)
	}
}

// TestUploadCapsNonCSV pins that the per-upload point cap also guards the
// formats without a streaming decoder.
func TestUploadCapsNonCSV(t *testing.T) {
	_, ts := testServer(t, serverConfig{maxPoints: 10})
	trs := synth.CorridorScene(1, 2, 24, 4, 11)
	var buf bytes.Buffer
	if err := trackio.WriteBestTrack(&buf, trs); err != nil {
		t.Fatal(err)
	}
	var e envelope
	code := postBuild(t, ts.URL, BuildRequest{Name: "m", Format: "besttrack", Data: buf.String(), Config: fixedConfig()}, &e)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("besttrack over point cap = %d, want 413", code)
	}
	if !strings.Contains(e.Message, "exceeds 10 points") {
		t.Errorf("413 body = %q", e.Message)
	}
}

// TestClassifyTimeout pins the deadline semantics: an expired context with
// zero completed assignments answers 504.
func TestClassifyTimeout(t *testing.T) {
	// The timeout only gates classification, so the build proceeds normally.
	_, ts := testServer(t, serverConfig{workers: 1, classifyTimeout: time.Nanosecond})
	_, csv := trainingCSV(t)
	var job service.Job
	if code := postBuild(t, ts.URL, BuildRequest{Name: "m", Data: csv, Config: fixedConfig()}, &job); code != http.StatusAccepted {
		t.Fatalf("POST /v1/models = %d", code)
	}
	if done := awaitJob(t, ts.URL, job.ID); done.State != service.JobDone {
		t.Fatalf("build failed: %s", done.Error)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/m/classify", csv, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("classify under 1ns deadline = %d, want 504", code)
	}
}

func TestClassifyErrorsHTTP(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 1})
	_, csv := trainingCSV(t)

	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/ghost/classify", csv, nil); code != http.StatusNotFound {
		t.Fatalf("classify against unknown model = %d, want 404", code)
	}
	var job service.Job
	if code := postBuild(t, ts.URL, BuildRequest{Name: "m", Data: csv, Config: fixedConfig()}, &job); code != http.StatusAccepted {
		t.Fatalf("POST /v1/models = %d", code)
	}
	if done := awaitJob(t, ts.URL, job.ID); done.State != service.JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/m/classify", "not,a,csv\nrow", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed classify body = %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/m/classify", "", nil); code != http.StatusBadRequest {
		t.Fatalf("empty classify body = %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}
}

// TestDeleteCancelsInFlightBuild pins the cancellation satellite: DELETE on
// a still-building model aborts the build — the injected builder blocks
// until its context ends — and the job finishes as "cancelled", distinct
// from "failed". A joined duplicate job is released too.
func TestDeleteCancelsInFlightBuild(t *testing.T) {
	started := make(chan struct{}, 8)
	_, ts := testServer(t, serverConfig{
		maxBuilds: 4,
		buildModel: func(ctx context.Context, _ string, _ []traclus.Trajectory, _ traclus.Config, _ *service.EstimateRange, _ func(string, float64)) (*service.Model, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	_, csv := trainingCSV(t)

	var job service.Job
	if code := postBuild(t, ts.URL, BuildRequest{Name: "m", Data: csv, Config: fixedConfig()}, &job); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	<-started // the build is definitely holding its context
	var dup service.Job
	if code := postBuild(t, ts.URL, BuildRequest{Name: "m", Data: csv, Config: fixedConfig()}, &dup); code != http.StatusAccepted {
		t.Fatalf("duplicate POST = %d", code)
	}

	var del struct {
		Status          string `json:"status"`
		Deleted         bool   `json:"deleted"`
		CancelledBuilds int    `json:"cancelled_builds"`
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/models/m", "", &del); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	if del.CancelledBuilds < 1 || del.Deleted {
		t.Fatalf("DELETE response = %+v, want ≥1 cancelled build and no cached model", del)
	}
	if done := awaitJob(t, ts.URL, job.ID); done.State != service.JobCancelled {
		t.Fatalf("build job finished as %s (%s), want cancelled", done.State, done.Error)
	}
	// The joiner's own wait is cancelled with it.
	if done := awaitJob(t, ts.URL, dup.ID); done.State != service.JobCancelled && done.State != service.JobFailed {
		t.Fatalf("joined job finished as %s (%s), want cancelled/failed", done.State, done.Error)
	}
	// The name is buildable again afterwards — nothing was cached.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/m", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET after cancelled build = %d, want 404", code)
	}
	// DELETE with neither a model nor a build is a 404.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/models/ghost", "", nil); code != http.StatusNotFound {
		t.Fatalf("DELETE ghost = %d, want 404", code)
	}
}

// TestJobReportsLiveProgress pins the progress satellite: while a build is
// running, polling its job returns the phase/fraction the builder last
// reported.
func TestJobReportsLiveProgress(t *testing.T) {
	reported := make(chan struct{})
	release := make(chan struct{})
	_, ts := testServer(t, serverConfig{
		buildModel: func(ctx context.Context, name string, trs []traclus.Trajectory, c traclus.Config, est *service.EstimateRange, progress func(string, float64)) (*service.Model, error) {
			progress("group", 0.5)
			close(reported)
			<-release
			return service.BuildCtx(ctx, name, trs, c, est, progress)
		},
	})
	_, csv := trainingCSV(t)
	var job service.Job
	if code := postBuild(t, ts.URL, BuildRequest{Name: "m", Data: csv, Config: corridorConfig()}, &job); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	<-reported
	var live service.Job
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, "", &live); code != http.StatusOK {
		t.Fatalf("GET job = %d", code)
	}
	if live.State != service.JobRunning || live.Phase != "group" || live.Progress != 0.5 {
		t.Fatalf("live job = %+v, want running at group/0.5", live)
	}
	close(release)
	done := awaitJob(t, ts.URL, job.ID)
	if done.State != service.JobDone {
		t.Fatalf("job finished as %s: %s", done.State, done.Error)
	}
	// The real build's progress stream ends on the final phase, complete.
	if done.Phase != "represent" || done.Progress != 1 {
		t.Fatalf("finished job progress = %s/%v, want represent/1", done.Phase, done.Progress)
	}
}

func TestFailedBuildReportsJobError(t *testing.T) {
	_, ts := testServer(t, serverConfig{
		buildModel: func(context.Context, string, []traclus.Trajectory, traclus.Config, *service.EstimateRange, func(string, float64)) (*service.Model, error) {
			return nil, fmt.Errorf("synthetic failure")
		},
	})
	_, csv := trainingCSV(t)
	var job service.Job
	if code := postBuild(t, ts.URL, BuildRequest{Name: "m", Data: csv, Config: fixedConfig()}, &job); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	done := awaitJob(t, ts.URL, job.ID)
	if done.State != service.JobFailed || !strings.Contains(done.Error, "synthetic failure") {
		t.Fatalf("job = %+v, want failed with synthetic failure", done)
	}
	// The failed model must not be cached.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/m", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET failed model = %d, want 404", code)
	}
}

// TestBuildIndexBackendParam pins the end-to-end backend selection: a valid
// index name builds the identical model, an unknown one answers 400 with
// the typed validation message.
func TestBuildIndexBackendParam(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)

	var e envelope
	bad := fixedConfig()
	bad.Index = "kdtree"
	if code := postBuild(t, ts.URL, BuildRequest{Name: "bad", Data: csv, Config: bad}, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown index name: status %d, want 400", code)
	}
	if !strings.Contains(e.Message, "Index") || !strings.Contains(e.Message, "kdtree") {
		t.Errorf("unknown index error %q does not name the field and value", e.Message)
	}

	// Build the same data under two backends; the summaries must agree on
	// everything the clustering determines.
	sums := map[string]service.Summary{}
	for _, index := range []string{"rtree", "brute"} {
		var job service.Job
		cfg := corridorConfig()
		cfg.Index = index
		code := postBuild(t, ts.URL, BuildRequest{Name: index, Data: csv, Config: cfg}, &job)
		if code != http.StatusAccepted {
			t.Fatalf("index=%s: status %d, want 202", index, code)
		}
		if got := awaitJob(t, ts.URL, job.ID); got.State != service.JobDone {
			t.Fatalf("index=%s: job finished %q (%s)", index, got.State, got.Error)
		}
		var sum service.Summary
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/"+index, "", &sum); code != http.StatusOK {
			t.Fatalf("GET model %s: %d", index, code)
		}
		sums[index] = sum
	}
	if a, b := sums["rtree"], sums["brute"]; a.Clusters != b.Clusters ||
		a.NoiseSegments != b.NoiseSegments || a.TotalSegments != b.TotalSegments {
		t.Errorf("backends disagree: rtree=(%d,%d,%d) brute=(%d,%d,%d)",
			a.Clusters, a.NoiseSegments, a.TotalSegments,
			b.Clusters, b.NoiseSegments, b.TotalSegments)
	}
}

// TestBuildAutoEstimation: config.auto estimates eps/min_lns inside the
// build (sharing its index) and the summary reports the chosen values;
// invalid non-estimated fields still answer 400.
func TestBuildAutoEstimation(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	trs, csv := trainingCSV(t)

	var job service.Job
	code := postBuild(t, ts.URL, BuildRequest{Name: "auto", Data: csv, Config: BuildConfig{
		Auto:          &AutoRange{Lo: f64(5), Hi: f64(60)},
		CostAdvantage: f64(15), MinSegmentLength: f64(40),
	}}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("auto build: status %d, want 202", code)
	}
	if got := awaitJob(t, ts.URL, job.ID); got.State != service.JobDone {
		t.Fatalf("auto job finished %q (%s)", got.State, got.Error)
	}
	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/auto", "", &sum); code != http.StatusOK {
		t.Fatalf("GET auto model: %d", code)
	}
	p := traclus.New(traclus.WithConfig(traclus.Config{CostAdvantage: 15, MinSegmentLength: 40}))
	est, err := p.Estimate(context.Background(), trs, 5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Eps != est.Eps {
		t.Errorf("auto summary eps = %v, want estimated %v", sum.Eps, est.Eps)
	}

	// eps is ignored (and unvalidated) under auto, but other fields are not.
	badCost := BuildConfig{Auto: &AutoRange{}, CostAdvantage: f64(-3)}
	if code := postBuild(t, ts.URL, BuildRequest{Name: "x", Data: csv, Config: badCost}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad cost_advantage under auto: status %d, want 400", code)
	}
}

// TestBuildAutoBoundsValidation: invalid auto bounds answer 400
// synchronously (never a failed async job), and a single explicit bound
// survives while the other derives from the data extent.
func TestBuildAutoBoundsValidation(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)
	var e envelope
	inverted := BuildConfig{Auto: &AutoRange{Lo: f64(60), Hi: f64(5)}}
	if code := postBuild(t, ts.URL, BuildRequest{Name: "x", Data: csv, Config: inverted}, &e); code != http.StatusBadRequest {
		t.Fatalf("inverted auto bounds: status %d, want 400", code)
	}
	if !strings.Contains(e.Message, "0 < lo < hi") {
		t.Errorf("inverted-bounds error %q does not state the constraint", e.Message)
	}
	// One-sided: lo must survive, hi defaults from the extent.
	var job service.Job
	oneSided := BuildConfig{Auto: &AutoRange{Lo: f64(5)}, CostAdvantage: f64(15), MinSegmentLength: f64(40)}
	if code := postBuild(t, ts.URL, BuildRequest{Name: "onesided", Data: csv, Config: oneSided}, &job); code != http.StatusAccepted {
		t.Fatalf("one-sided auto bound: status %d, want 202", code)
	}
	if got := awaitJob(t, ts.URL, job.ID); got.State != service.JobDone {
		t.Fatalf("one-sided auto job finished %q (%s)", got.State, got.Error)
	}
}

// An explicit auto lo of 0 is a bound violation (400), not a request for
// the extent-derived default — presence decides defaulting, not the zero
// value.
func TestBuildAutoExplicitZeroBound(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)
	zero := BuildConfig{Auto: &AutoRange{Lo: f64(0), Hi: f64(50)}}
	if code := postBuild(t, ts.URL, BuildRequest{Name: "x", Data: csv, Config: zero}, nil); code != http.StatusBadRequest {
		t.Fatalf("explicit auto lo=0: status %d, want 400", code)
	}
}
