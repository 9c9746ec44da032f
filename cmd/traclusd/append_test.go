package main

// The append endpoint over HTTP: a POST grows the served model in place
// (epoch bumps, summary matches a from-scratch batch build), errors answer
// the typed envelope (404 unknown, 409 snapshot-restored, 422 geometry
// mismatch, 400 malformed), sweep queries after an append cover the grown
// item set, and in sharded mode the request forwards to the owner replica.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"testing"

	"repro/internal/ring"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/trackio"

	traclus "repro"
)

// appendTracks is a second corridor scene with ids disjoint from
// trainingCSV's, so the grown model has an unambiguous trajectory set.
func appendTracks() []traclus.Trajectory {
	trs := synth.CorridorScene(2, 6, 20, 4, 17)
	for i := range trs {
		trs[i].ID += 5000
	}
	return trs
}

func postAppend(t *testing.T, ts, name string, req AppendRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return doJSON(t, http.MethodPost, ts+"/v1/models/"+name+"/append", string(body), out)
}

// TestV1AppendEndToEnd: build, append, and verify the appended model is
// the batch model — same summary as a from-scratch build over the
// concatenated data — with the epoch advanced and classify still serving.
func TestV1AppendEndToEnd(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	train, csv := trainingCSV(t)
	extra := appendTracks()

	v1Build(t, ts.URL, BuildRequest{
		Name: "grow", Data: csv,
		Config: BuildConfig{
			Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40),
		},
	})
	var before service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/grow", "", &before); code != http.StatusOK {
		t.Fatalf("GET before append = %d", code)
	}
	if before.Epoch != 0 {
		t.Fatalf("fresh build epoch = %d, want 0", before.Epoch)
	}

	var appended service.Summary
	if code := postAppend(t, ts.URL, "grow", AppendRequest{Data: csvOf(t, extra...)}, &appended); code != http.StatusOK {
		t.Fatalf("POST append = %d", code)
	}
	if appended.Epoch != 1 {
		t.Errorf("appended epoch = %d, want 1", appended.Epoch)
	}
	if want := len(train) + len(extra); appended.Trajectories != want {
		t.Errorf("appended trajectories = %d, want %d", appended.Trajectories, want)
	}

	// The summary endpoint serves the new epoch immediately.
	var after service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/grow", "", &after); code != http.StatusOK {
		t.Fatalf("GET after append = %d", code)
	}
	if after.Epoch != 1 || after.TotalSegments != appended.TotalSegments {
		t.Errorf("served summary %+v does not match the append response %+v", after, appended)
	}

	// Batch ground truth: a from-scratch build over the concatenated data
	// must agree on everything the clustering determines.
	v1Build(t, ts.URL, BuildRequest{
		Name: "batch", Data: csvOf(t, append(slices.Clone(train), extra...)...),
		Config: BuildConfig{
			Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40),
		},
	})
	var batch service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/batch", "", &batch); code != http.StatusOK {
		t.Fatalf("GET batch = %d", code)
	}
	if appended.Clusters != batch.Clusters || appended.TotalSegments != batch.TotalSegments ||
		appended.NoiseSegments != batch.NoiseSegments || appended.RemovedClusters != batch.RemovedClusters ||
		appended.QMeasure != batch.QMeasure {
		t.Errorf("appended model diverges from batch build:\nappend: %+v\nbatch:  %+v", appended, batch)
	}
	// Every Formula 11 term bit for bit: the per-cluster SSEs from the
	// summaries, the noise penalty from each model's sweep point at its own
	// ε (the first point of a sweep sits exactly on lo).
	if len(appended.ClusterStats) != len(batch.ClusterStats) {
		t.Fatalf("appended model has %d cluster stats, batch %d", len(appended.ClusterStats), len(batch.ClusterStats))
	}
	for i, want := range batch.ClusterStats {
		if got := appended.ClusterStats[i]; math.Float64bits(got.SSE) != math.Float64bits(want.SSE) {
			t.Errorf("cluster %d: appended SSE %v, batch %v", i, got.SSE, want.SSE)
		}
	}
	var grownSweep, batchSweep sweepResponse
	for name, out := range map[string]*sweepResponse{"grow": &grownSweep, "batch": &batchSweep} {
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/"+name+"/sweep?lo=30&hi=60&steps=2", "", out); code != http.StatusOK {
			t.Fatalf("GET %s sweep = %d", name, code)
		}
	}
	if a, b := grownSweep.Points[0], batchSweep.Points[0]; math.Float64bits(a.NoisePenalty) != math.Float64bits(b.NoisePenalty) ||
		math.Float64bits(a.QMeasure) != math.Float64bits(appended.QMeasure) {
		t.Errorf("at ε=30: appended noise penalty %v, batch %v; appended sweep QMeasure %v, summary %v",
			a.NoisePenalty, b.NoisePenalty, a.QMeasure, appended.QMeasure)
	}

	// Classification serves on the appended epoch.
	var classifyResp struct {
		Results []service.Assignment `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/grow/classify", csvOf(t, extra[0]), &classifyResp); code != http.StatusOK {
		t.Fatalf("classify after append = %d", code)
	}
	if len(classifyResp.Results) != 1 || classifyResp.Results[0].Err != "" {
		t.Fatalf("classify results after append: %+v", classifyResp.Results)
	}
}

// TestV1AppendErrors is the table of envelope paths that never reach the
// clustering layer.
func TestV1AppendErrors(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 1})
	_, csv := trainingCSV(t)
	v1Build(t, ts.URL, BuildRequest{
		Name: "target", Data: csv,
		Config: BuildConfig{
			Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40),
		},
	})
	extraCSV := csvOf(t, appendTracks()...)

	cases := []struct {
		name   string
		model  string
		body   string
		status int
		code   string
	}{
		{"unknown model", "ghost", `{"data":` + mustJSONString(extraCSV) + `}`, http.StatusNotFound, codeNotFound},
		{"bad model name", "bad*name", `{"data":"x"}`, http.StatusBadRequest, codeInvalidRequest},
		{"unknown field", "target", `{"data":"x","eps":30}`, http.StatusBadRequest, codeInvalidRequest},
		{"not json", "target", "traj_id,x,y\n1,0,0\n", http.StatusBadRequest, codeInvalidRequest},
		{"empty data", "target", `{"data":""}`, http.StatusBadRequest, codeInvalidRequest},
		{"bad format", "target", `{"format":"parquet","data":"x"}`, http.StatusBadRequest, codeInvalidRequest},
		{"malformed rows", "target", `{"data":"traj_id,x,y\n1,2\n"}`, http.StatusBadRequest, codeInvalidRequest},
	}
	for _, tc := range cases {
		var env envelope
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/models/"+tc.model+"/append", tc.body, &env)
		if code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.status)
			continue
		}
		if env.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, env.Code, tc.code)
		}
		if env.Message == "" {
			t.Errorf("%s: envelope %+v missing message", tc.name, env)
		}
	}
	// None of the failures minted an epoch.
	var sum service.Summary
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/target", "", &sum); code != http.StatusOK || sum.Epoch != 0 {
		t.Fatalf("model after failed appends: status %d epoch %d, want 200 epoch 0", code, sum.Epoch)
	}
}

func mustJSONString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestV1AppendSnapshotRestored409: a model imported from a snapshot has no
// training geometry to grow — the append conflicts with the model's state.
func TestV1AppendSnapshotRestored409(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 1})
	_, csv := trainingCSV(t)
	v1Build(t, ts.URL, BuildRequest{
		Name: "origin", Data: csv,
		Config: BuildConfig{
			Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40),
		},
	})
	resp, err := http.Get(ts.URL + "/v1/models/origin/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot export = %d, %v", resp.StatusCode, err)
	}
	putReq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/frozen/snapshot", bytes.NewReader(snap))
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot import = %d", putResp.StatusCode)
	}

	var env envelope
	if code := postAppend(t, ts.URL, "frozen", AppendRequest{Data: csvOf(t, appendTracks()...)}, &env); code != http.StatusConflict {
		t.Fatalf("append to snapshot-restored model = %d, want 409", code)
	}
	if env.Code != codeConflict {
		t.Errorf("code %q, want %q", env.Code, codeConflict)
	}
	// The original, which still holds its appender, keeps accepting.
	var sum service.Summary
	if code := postAppend(t, ts.URL, "origin", AppendRequest{Data: csvOf(t, appendTracks()...)}, &sum); code != http.StatusOK || sum.Epoch != 1 {
		t.Fatalf("append to original = %d epoch %d, want 200 epoch 1", code, sum.Epoch)
	}
}

// TestV1AppendGeometryMismatch: a spatiotemporal model rejects data with no
// timestamp column as 422 geometry_mismatch, and accepts timed CSV.
func TestV1AppendGeometryMismatch(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	v1Build(t, ts.URL, BuildRequest{
		Name: "st", Data: timedTrainingCSV(t),
		Config: BuildConfig{
			Eps: f64(30), MinLns: f64(6),
			CostAdvantage: f64(15), MinSegmentLength: f64(40),
			Geometry: "spatiotemporal", TemporalWeight: f64(0.02),
		},
	})

	var env envelope
	if code := postAppend(t, ts.URL, "st", AppendRequest{Format: "besttrack", Data: "irrelevant"}, &env); code != http.StatusUnprocessableEntity {
		t.Fatalf("besttrack append to spatiotemporal model = %d, want 422", code)
	}
	if env.Code != codeGeometryBad {
		t.Errorf("code %q, want %q", env.Code, codeGeometryBad)
	}

	// Timed CSV appends fine and advances the epoch.
	extra := synth.TimedCorridorScene(2, 4, 20, 4, 29, 60, 10)
	for i := range extra {
		extra[i].ID += 5000
	}
	var buf bytes.Buffer
	if err := trackio.WriteCSV(&buf, extra); err != nil {
		t.Fatal(err)
	}
	var sum service.Summary
	if code := postAppend(t, ts.URL, "st", AppendRequest{Data: buf.String()}, &sum); code != http.StatusOK {
		t.Fatalf("timed append = %d", code)
	}
	if sum.Epoch != 1 || sum.Geometry != "spatiotemporal" {
		t.Errorf("timed append summary: epoch %d geometry %q", sum.Epoch, sum.Geometry)
	}
}

// TestV1AppendSweepServesGrownModel is the staleness regression over HTTP:
// a sweep/clusters query materialises the dendrogram, an append lands, and
// the next query must answer over the post-append item set — never a cut
// of the stale pre-append merge structure.
func TestV1AppendSweepServesGrownModel(t *testing.T) {
	_, ts := testServer(t, serverConfig{workers: 2})
	sum := buildSweepModel(t, ts.URL)

	// Materialise the pre-append dendrogram server-side.
	var pre service.CutResult
	url := fmt.Sprintf("%s/v1/models/sweepable/clusters?eps=%g", ts.URL, sum.Eps)
	if code := doJSON(t, http.MethodGet, url, "", &pre); code != http.StatusOK {
		t.Fatalf("GET clusters before append = %d", code)
	}
	if pre.TotalSegments != sum.TotalSegments {
		t.Fatalf("pre-append cut covers %d segments, want %d", pre.TotalSegments, sum.TotalSegments)
	}

	var appended service.Summary
	if code := postAppend(t, ts.URL, "sweepable", AppendRequest{Data: csvOf(t, appendTracks()...)}, &appended); code != http.StatusOK {
		t.Fatalf("append = %d", code)
	}
	if appended.TotalSegments <= sum.TotalSegments {
		t.Fatalf("append did not grow the model: %d -> %d segments", sum.TotalSegments, appended.TotalSegments)
	}

	var post service.CutResult
	if code := doJSON(t, http.MethodGet, url, "", &post); code != http.StatusOK {
		t.Fatalf("GET clusters after append = %d", code)
	}
	if post.TotalSegments != appended.TotalSegments {
		t.Errorf("post-append cut covers %d segments, want %d — served a stale dendrogram", post.TotalSegments, appended.TotalSegments)
	}
	var sweep sweepResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/models/sweepable/sweep?lo=10&hi=60&steps=3", "", &sweep); code != http.StatusOK {
		t.Fatalf("GET sweep after append = %d", code)
	}
	for _, p := range sweep.Points {
		if p.QMeasure != p.TotalSSE+p.NoisePenalty {
			t.Errorf("eps=%g: q_measure %g ≠ sse %g + penalty %g", p.Eps, p.QMeasure, p.TotalSSE, p.NoisePenalty)
		}
	}
}

// TestShardedAppendForwardsToOwner: an append landing on a non-owner
// replica forwards to the owner, which grows its live model; the client
// sees the new epoch and the owner header.
func TestShardedAppendForwardsToOwner(t *testing.T) {
	servers, urls, builds := replicaSet(t, 3)
	_, csv := trainingCSV(t)
	const name = "grown-shard"
	ownerURL := ring.New(urls, 0).Owner(name)
	ownerIdx := slices.Index(urls, ownerURL)
	nonOwner := (ownerIdx + 1) % len(urls)

	var job service.Job
	if code := postBuild(t, ownerURL, BuildRequest{Name: name, Data: csv, Config: corridorConfig()}, &job); code != http.StatusAccepted {
		t.Fatalf("owner POST = %d", code)
	}
	if done := awaitJob(t, ownerURL, job.ID); done.State != service.JobDone {
		t.Fatalf("owner build failed: %s", done.Error)
	}

	// Append via a non-owner: must forward, not 404 locally.
	var sum service.Summary
	if code := postAppend(t, urls[nonOwner], name, AppendRequest{Data: csvOf(t, appendTracks()...)}, &sum); code != http.StatusOK {
		t.Fatalf("append via non-owner = %d", code)
	}
	if sum.Epoch != 1 {
		t.Errorf("forwarded append epoch = %d, want 1", sum.Epoch)
	}
	// The owner holds the grown model; no replica ran a clustering build
	// beyond the original one.
	m, ok, err := servers[ownerIdx].store.Get(name)
	if err != nil || !ok {
		t.Fatalf("owner lost the model (ok=%v err=%v)", ok, err)
	}
	if m.Epoch() != 1 {
		t.Errorf("owner-resident epoch = %d, want 1", m.Epoch())
	}
	var total int64
	for _, b := range builds {
		total += b.Load()
	}
	if total != 1 {
		t.Errorf("%d clustering runs after append, want 1 (appends never rebuild)", total)
	}
}
