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

func trainingCSV(t *testing.T) ([]traclus.Trajectory, string) {
	t.Helper()
	trs := synth.CorridorScene(2, 10, 24, 4, 11)
	var buf bytes.Buffer
	if err := trackio.WriteCSV(&buf, trs); err != nil {
		t.Fatal(err)
	}
	return trs, buf.String()
}

func csvOf(t *testing.T, trs ...traclus.Trajectory) string {
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
		if code := doJSON(t, http.MethodGet, base+"/jobs/"+id, "", &job); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
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
	code := doJSON(t, http.MethodPost,
		ts.URL+"/models?name=corridors&eps=30&minlns=6&cost_advantage=15&min_seg_len=40", csv, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /models = %d", code)
	}
	if done := awaitJob(t, ts.URL, job.ID); done.State != service.JobDone {
		t.Fatalf("job finished as %s: %s", done.State, done.Error)
	}

	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/models/corridors", "", &sum); code != http.StatusOK {
		t.Fatalf("GET /models/corridors = %d", code)
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
	code = doJSON(t, http.MethodPost, ts.URL+"/models/corridors/classify", csvOf(t, queries...), &classifyResp)
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
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, health)
	}
	if health.Models != 1 {
		t.Errorf("healthz models = %d, want 1", health.Models)
	}

	// Evict and observe the 404.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/models/corridors", "", nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/models/corridors", "", nil); code != http.StatusNotFound {
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
			if code := doJSON(t, http.MethodPost,
				ts.URL+"/models?name=dup&eps=30&minlns=6&cost_advantage=15&min_seg_len=40", csv, &jobs[i]); code != http.StatusAccepted {
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
	if code := doJSON(t, http.MethodPost,
		ts.URL+"/models?name=dup&eps=30&minlns=6", csv, &hit); code != http.StatusOK {
		t.Fatalf("POST after completion = %d, want 200 cache hit", code)
	}
	if !hit.Cached || hit.Model != "dup" {
		t.Fatalf("cache-hit response = %+v", hit)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("cache hit triggered build #%d", n)
	}
}

func TestBuildRequestValidation(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)
	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"missing name", "/models", csv, http.StatusBadRequest},
		{"bad name", "/models?name=../etc", csv, http.StatusBadRequest},
		{"unparsable eps", "/models?name=m&eps=abc", csv, http.StatusBadRequest},
		{"NaN eps", "/models?name=m&eps=NaN", csv, http.StatusBadRequest},
		{"negative eps", "/models?name=m&eps=-4", csv, http.StatusBadRequest},
		{"infinite minlns", "/models?name=m&minlns=Inf", csv, http.StatusBadRequest},
		{"negative mintrajs", "/models?name=m&mintrajs=-2", csv, http.StatusBadRequest},
		{"bad mintrajs", "/models?name=m&mintrajs=x", csv, http.StatusBadRequest},
		{"bad undirected", "/models?name=m&undirected=maybe", csv, http.StatusBadRequest},
		{"bad format", "/models?name=m&format=parquet", csv, http.StatusBadRequest},
		{"malformed body", "/models?name=m", "traj_id,x,y\n1,2\n", http.StatusBadRequest},
		{"non-numeric body", "/models?name=m", "traj_id,x,y\n1,a,b\n", http.StatusBadRequest},
		{"empty body", "/models?name=m", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := doJSON(t, http.MethodPost, ts.URL+tc.url, tc.body, &e); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		} else if e.Error == "" {
			t.Errorf("%s: no error message in body", tc.name)
		}
	}
	// Typed validation text must surface to the client.
	var e struct {
		Error string `json:"error"`
	}
	doJSON(t, http.MethodPost, ts.URL+"/models?name=m&eps=NaN", csv, &e)
	if !strings.Contains(e.Error, "Eps") || !strings.Contains(e.Error, "must be positive") {
		t.Errorf("NaN eps error %q does not carry the typed validation message", e.Error)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, ts := testServer(t, serverConfig{maxBody: 64})
	_, csv := trainingCSV(t)
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=m", csv, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", code)
	}
	// The streaming-decoder point cap is a second 413 path, independent of
	// the byte cap.
	_, ts = testServer(t, serverConfig{maxPoints: 10})
	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=m", csv, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over point cap = %d, want 413", code)
	}
	if !strings.Contains(e.Error, "exceeds 10 points") {
		t.Errorf("point-cap error = %q", e.Error)
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
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=a&eps=30&minlns=6", csv, &job); code != http.StatusAccepted {
		t.Fatalf("first build = %d", code)
	}
	<-started // the slot is definitely held
	var e struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=b&eps=30&minlns=6", csv, &e); code != http.StatusTooManyRequests {
		t.Fatalf("build past the cap = %d, want 429", code)
	}
	if !strings.Contains(e.Error, "too many builds") {
		t.Errorf("429 body = %q", e.Error)
	}
	// A duplicate of the in-flight name joins it instead of consuming a
	// slot, so it is accepted even at the cap.
	var dupJob service.Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=a&eps=30&minlns=6", csv, &dupJob); code != http.StatusAccepted {
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
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=b&eps=30&minlns=6", csv, &job); code != http.StatusAccepted {
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
	var e struct {
		Error string `json:"error"`
	}
	code := doJSON(t, http.MethodPost, ts.URL+"/models?name=m&format=besttrack", buf.String(), &e)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("besttrack over point cap = %d, want 413", code)
	}
	if !strings.Contains(e.Error, "exceeds 10 points") {
		t.Errorf("413 body = %q", e.Error)
	}
}

// TestClassifyTimeout pins the deadline semantics: an expired context with
// zero completed assignments answers 504.
func TestClassifyTimeout(t *testing.T) {
	// The timeout only gates classification, so the build proceeds normally.
	_, ts := testServer(t, serverConfig{workers: 1, classifyTimeout: time.Nanosecond})
	_, csv := trainingCSV(t)
	var job service.Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=m&eps=30&minlns=6", csv, &job); code != http.StatusAccepted {
		t.Fatalf("POST /models = %d", code)
	}
	if done := awaitJob(t, ts.URL, job.ID); done.State != service.JobDone {
		t.Fatalf("build failed: %s", done.Error)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/models/m/classify", csv, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("classify under 1ns deadline = %d, want 504", code)
	}
}

func TestClassifyErrorsHTTP(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 1})
	_, csv := trainingCSV(t)

	if code := doJSON(t, http.MethodPost, ts.URL+"/models/ghost/classify", csv, nil); code != http.StatusNotFound {
		t.Fatalf("classify against unknown model = %d, want 404", code)
	}
	var job service.Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=m&eps=30&minlns=6", csv, &job); code != http.StatusAccepted {
		t.Fatalf("POST /models = %d", code)
	}
	if done := awaitJob(t, ts.URL, job.ID); done.State != service.JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/models/m/classify", "not,a,csv\nrow", nil); code != http.StatusBadRequest {
		t.Fatalf("malformed classify body = %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/models/m/classify", "", nil); code != http.StatusBadRequest {
		t.Fatalf("empty classify body = %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/job-999", "", nil); code != http.StatusNotFound {
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
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=m&eps=30&minlns=6", csv, &job); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	<-started // the build is definitely holding its context
	var dup service.Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=m&eps=30&minlns=6", csv, &dup); code != http.StatusAccepted {
		t.Fatalf("duplicate POST = %d", code)
	}

	var del struct {
		Status          string `json:"status"`
		Deleted         bool   `json:"deleted"`
		CancelledBuilds int    `json:"cancelled_builds"`
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/models/m", "", &del); code != http.StatusOK {
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
	if code := doJSON(t, http.MethodGet, ts.URL+"/models/m", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET after cancelled build = %d, want 404", code)
	}
	// DELETE with neither a model nor a build is a 404.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/models/ghost", "", nil); code != http.StatusNotFound {
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
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=m&eps=30&minlns=6&cost_advantage=15&min_seg_len=40", csv, &job); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	<-reported
	var live service.Job
	if code := doJSON(t, http.MethodGet, ts.URL+"/jobs/"+job.ID, "", &live); code != http.StatusOK {
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
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=m&eps=30&minlns=6", csv, &job); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	done := awaitJob(t, ts.URL, job.ID)
	if done.State != service.JobFailed || !strings.Contains(done.Error, "synthetic failure") {
		t.Fatalf("job = %+v, want failed with synthetic failure", done)
	}
	// The failed model must not be cached.
	if code := doJSON(t, http.MethodGet, ts.URL+"/models/m", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET failed model = %d, want 404", code)
	}
}

// TestBuildIndexBackendParam pins the end-to-end backend selection: a valid
// index name builds the identical model, an unknown one answers 400 with
// the typed validation message.
func TestBuildIndexBackendParam(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)

	var e struct{ Error string }
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=bad&eps=30&minlns=6&index=kdtree", csv, &e); code != http.StatusBadRequest {
		t.Fatalf("unknown index name: status %d, want 400", code)
	}
	if !strings.Contains(e.Error, "Index") || !strings.Contains(e.Error, "kdtree") {
		t.Errorf("unknown index error %q does not name the field and value", e.Error)
	}

	// Build the same data under two backends; the summaries must agree on
	// everything the clustering determines.
	sums := map[string]service.Summary{}
	for _, index := range []string{"rtree", "brute"} {
		var job service.Job
		code := doJSON(t, http.MethodPost,
			ts.URL+"/models?name="+index+"&eps=30&minlns=6&cost_advantage=15&min_seg_len=40&index="+index, csv, &job)
		if code != http.StatusAccepted {
			t.Fatalf("index=%s: status %d, want 202", index, code)
		}
		if got := awaitJob(t, ts.URL, job.ID); got.State != service.JobDone {
			t.Fatalf("index=%s: job finished %q (%s)", index, got.State, got.Error)
		}
		var sum service.Summary
		if code := doJSON(t, http.MethodGet, ts.URL+"/models/"+index, "", &sum); code != http.StatusOK {
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

// TestBuildAutoEstimation: auto=true estimates eps/minlns inside the build
// (sharing its index) and the summary reports the chosen values; bad auto
// bounds and invalid non-estimated fields still answer 400.
func TestBuildAutoEstimation(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	trs, csv := trainingCSV(t)

	var job service.Job
	code := doJSON(t, http.MethodPost,
		ts.URL+"/models?name=auto&auto=true&auto_lo=5&auto_hi=60&cost_advantage=15&min_seg_len=40", csv, &job)
	if code != http.StatusAccepted {
		t.Fatalf("auto build: status %d, want 202", code)
	}
	if got := awaitJob(t, ts.URL, job.ID); got.State != service.JobDone {
		t.Fatalf("auto job finished %q (%s)", got.State, got.Error)
	}
	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/models/auto", "", &sum); code != http.StatusOK {
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

	var e struct{ Error string }
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=x&auto=maybe", csv, &e); code != http.StatusBadRequest {
		t.Fatalf("bad auto flag: status %d, want 400", code)
	}
	// eps is ignored (and unvalidated) under auto, but other fields are not.
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=x&auto=true&cost_advantage=-3", csv, &e); code != http.StatusBadRequest {
		t.Fatalf("bad cost_advantage under auto: status %d, want 400", code)
	}
}

// TestBuildAutoBoundsValidation: invalid auto bounds answer 400
// synchronously (never a failed async job), and a single explicit bound
// survives while the other derives from the data extent.
func TestBuildAutoBoundsValidation(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)
	var e struct{ Error string }
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=x&auto=true&auto_lo=60&auto_hi=5", csv, &e); code != http.StatusBadRequest {
		t.Fatalf("inverted auto bounds: status %d, want 400", code)
	}
	if !strings.Contains(e.Error, "0 < lo < hi") {
		t.Errorf("inverted-bounds error %q does not state the constraint", e.Error)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=x&auto=true&auto_lo=NaN", csv, &e); code != http.StatusBadRequest {
		t.Fatalf("NaN auto_lo: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=inf&auto=true&auto_lo=5&auto_hi=Inf", csv, &e); code != http.StatusBadRequest {
		t.Fatalf("infinite auto_hi: status %d, want 400", code)
	}
	// One-sided: auto_lo must survive, auto_hi defaults from the extent.
	var job service.Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=onesided&auto=true&auto_lo=5&cost_advantage=15&min_seg_len=40", csv, &job); code != http.StatusAccepted {
		t.Fatalf("one-sided auto bound: status %d, want 202", code)
	}
	if got := awaitJob(t, ts.URL, job.ID); got.State != service.JobDone {
		t.Fatalf("one-sided auto job finished %q (%s)", got.State, got.Error)
	}
}

// An explicit auto_lo=0 is a bound violation (400), not a request for the
// extent-derived default — presence decides defaulting, not the zero value.
func TestBuildAutoExplicitZeroBound(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	_, csv := trainingCSV(t)
	var e struct{ Error string }
	if code := doJSON(t, http.MethodPost, ts.URL+"/models?name=x&auto=true&auto_lo=0&auto_hi=50", csv, &e); code != http.StatusBadRequest {
		t.Fatalf("explicit auto_lo=0: status %d, want 400", code)
	}
}
