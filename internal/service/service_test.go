package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/segpool"
	"repro/internal/spindex"
	"repro/internal/synth"

	traclus "repro"
)

func trainingSet() []traclus.Trajectory {
	return synth.CorridorScene(2, 10, 24, 4, 11)
}

func buildConfig() traclus.Config {
	return traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}
}

func TestBuildSummary(t *testing.T) {
	trs := trainingSet()
	m, err := BuildCtx(context.Background(), "corridors", trs, buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := m.Summary()
	if sum.Name != "corridors" {
		t.Errorf("Name = %q", sum.Name)
	}
	if sum.Clusters != 2 {
		t.Errorf("Clusters = %d, want 2", sum.Clusters)
	}
	if sum.Trajectories != len(trs) {
		t.Errorf("Trajectories = %d, want %d", sum.Trajectories, len(trs))
	}
	if len(sum.ClusterStats) != sum.Clusters {
		t.Errorf("ClusterStats has %d entries, want %d", len(sum.ClusterStats), sum.Clusters)
	}
	if sum.QMeasure <= 0 {
		t.Errorf("QMeasure = %v", sum.QMeasure)
	}
	if sum.BuiltAt.IsZero() {
		t.Error("BuiltAt unset")
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := BuildCtx(context.Background(), "bad", trainingSet(), traclus.Config{Eps: -1, MinLns: 6}, nil, nil); err == nil {
		t.Error("negative eps accepted")
	}
}

// TestBuildCtxCancelled pins that a done context aborts the underlying
// clustering with context.Canceled — the condition the daemon maps to a
// "cancelled" (not "failed") job.
func TestBuildCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := BuildCtx(ctx, "doomed", trainingSet(), buildConfig(), nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Fatal("cancelled build returned a model")
	}
}

// TestBuildCtxStreamsProgress pins the progress plumbing: a full build
// reports all three pipeline phases in order with each reaching fraction 1.
func TestBuildCtxStreamsProgress(t *testing.T) {
	type ev struct {
		phase string
		frac  float64
	}
	var events []ev // serialized by the pipeline's progress contract
	m, err := BuildCtx(context.Background(), "corridors", trainingSet(), buildConfig(), nil,
		func(phase string, fraction float64) { events = append(events, ev{phase, fraction}) })
	if err != nil {
		t.Fatal(err)
	}
	if m.Summary().Clusters != 2 {
		t.Fatalf("Clusters = %d, want 2", m.Summary().Clusters)
	}
	finished := map[string]bool{}
	order := []string{}
	for _, e := range events {
		if len(order) == 0 || order[len(order)-1] != e.phase {
			order = append(order, e.phase)
		}
		if e.frac == 1 {
			finished[e.phase] = true
		}
	}
	want := []string{"partition", "group", "represent"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("phase order = %v, want %v", order, want)
	}
	for _, ph := range want {
		if !finished[ph] {
			t.Errorf("phase %s never reported fraction 1", ph)
		}
	}
}

func TestModelClassifyBatch(t *testing.T) {
	trs := trainingSet()
	m, err := BuildCtx(context.Background(), "corridors", trs, buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mix valid queries with one unpartitionable trajectory; the batch must
	// report the failure per item without aborting.
	queries := append([]traclus.Trajectory{}, trs[:4]...)
	queries = append(queries, traclus.NewTrajectory(999, []traclus.Point{traclus.Pt(0, 0)}))
	for _, workers := range []int{1, 0} {
		out := m.ClassifyBatch(context.Background(), queries, workers)
		if len(out) != len(queries) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(out), len(queries))
		}
		for i, a := range out[:4] {
			if a.Err != "" || a.Cluster < 0 {
				t.Errorf("workers=%d: query %d: %+v", workers, i, a)
			}
			if a.TrajID != queries[i].ID {
				t.Errorf("workers=%d: query %d TrajID = %d, want %d", workers, i, a.TrajID, queries[i].ID)
			}
		}
		if bad := out[4]; bad.Err == "" || bad.Cluster != -1 {
			t.Errorf("workers=%d: invalid query not reported: %+v", workers, bad)
		}
	}
}

func TestClassifyBatchHonoursContext(t *testing.T) {
	m, err := BuildCtx(context.Background(), "corridors", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := m.ClassifyBatch(ctx, trainingSet(), 1)
	for i, a := range out {
		if !strings.Contains(a.Err, "context canceled") || a.Cluster != -1 {
			t.Fatalf("item %d computed despite cancelled context: %+v", i, a)
		}
	}
}

func TestBuildWithNoClusters(t *testing.T) {
	m, err := BuildCtx(context.Background(), "sparse", trainingSet()[:2], traclus.Config{Eps: 1, MinLns: 50}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Summary().Clusters != 0 {
		t.Fatalf("Clusters = %d, want 0", m.Summary().Clusters)
	}
	if _, _, err := m.Classify(trainingSet()[0]); err == nil {
		t.Error("classification against an empty model succeeded")
	}
}

// noJob is a build function stub for registry tests that ignores its
// context and progress callback.
func noJob(result error) func(context.Context, func(string, float64)) (string, error) {
	return func(context.Context, func(string, float64)) (string, error) { return "", result }
}

func TestJobsLifecycle(t *testing.T) {
	jobs := NewJobs()
	release := make(chan struct{})
	job := jobs.Start(context.Background(), "m1", func(context.Context, func(string, float64)) (string, error) {
		<-release
		return "", nil
	})
	if job.ID == "" || job.State != JobRunning || job.Model != "m1" {
		t.Fatalf("unexpected initial job: %+v", job)
	}
	if got, ok := jobs.Get(job.ID); !ok || got.State != JobRunning {
		t.Fatalf("running job not found: %+v", got)
	}
	close(release)
	waitForState(t, jobs, job.ID, JobDone)

	fail := jobs.Start(context.Background(), "m2", noJob(errors.New("boom")))
	waitForState(t, jobs, fail.ID, JobFailed)
	got, _ := jobs.Get(fail.ID)
	if got.Error == "" || got.Finished.IsZero() {
		t.Errorf("failed job missing error/finish time: %+v", got)
	}
	if _, ok := jobs.Get("job-999"); ok {
		t.Error("unknown job found")
	}
}

// TestJobsCancellation pins the cancel path: Cancel aborts the job's
// context, a build that returns the context error finishes as
// JobCancelled (distinct from JobFailed), and late progress updates on the
// terminal job are dropped.
func TestJobsCancellation(t *testing.T) {
	jobs := NewJobs()
	var updateFn func(string, float64)
	job := jobs.Start(context.Background(), "m1", func(ctx context.Context, update func(string, float64)) (string, error) {
		updateFn = update
		update("partition", 0.25)
		<-ctx.Done()
		return "", ctx.Err()
	})
	for {
		if got, _ := jobs.Get(job.ID); got.Phase == "partition" {
			break
		}
		sleep()
	}
	if !jobs.Cancel(job.ID) {
		t.Fatal("Cancel found no running job")
	}
	waitForState(t, jobs, job.ID, JobCancelled)
	got, _ := jobs.Get(job.ID)
	if got.Phase != "partition" || got.Progress != 0.25 {
		t.Errorf("progress not preserved at cancellation: %+v", got)
	}
	updateFn("represent", 0.9) // must not mutate the terminal job
	if got, _ := jobs.Get(job.ID); got.Phase != "partition" {
		t.Errorf("late update mutated finished job: %+v", got)
	}
	if jobs.Cancel(job.ID) {
		t.Error("Cancel succeeded on a finished job")
	}

	// A build that swallows the context error (returns nil) is Done, not
	// Cancelled — the state tracks what the build reported.
	swallow := jobs.Start(context.Background(), "m2", noJob(nil))
	waitForState(t, jobs, swallow.ID, JobDone)

	// DeadlineExceeded is a failure, not a cancellation.
	timeout := jobs.Start(context.Background(), "m3", noJob(context.DeadlineExceeded))
	waitForState(t, jobs, timeout.ID, JobFailed)
}

func TestJobsCancelModel(t *testing.T) {
	jobs := NewJobs()
	build := func(ctx context.Context, _ func(string, float64)) (string, error) {
		<-ctx.Done()
		return "", ctx.Err()
	}
	a1 := jobs.Start(context.Background(), "a", build)
	a2 := jobs.Start(context.Background(), "a", build)
	b := jobs.Start(context.Background(), "b", build)
	if n := jobs.CancelModel("a"); n != 2 {
		t.Fatalf("CancelModel(a) = %d, want 2", n)
	}
	waitForState(t, jobs, a1.ID, JobCancelled)
	waitForState(t, jobs, a2.ID, JobCancelled)
	if got, _ := jobs.Get(b.ID); got.State != JobRunning {
		t.Fatalf("unrelated model's job was cancelled: %+v", got)
	}
	if n := jobs.CancelModel("a"); n != 0 {
		t.Errorf("second CancelModel(a) = %d, want 0", n)
	}
	jobs.CancelModel("b")
	waitForState(t, jobs, b.ID, JobCancelled)
}

func TestJobsPruneFinished(t *testing.T) {
	jobs := NewJobs()
	jobs.keep = 3
	var ids []string
	for i := 0; i < 5; i++ {
		job := jobs.Start(context.Background(), "m", noJob(nil))
		waitForState(t, jobs, job.ID, JobDone)
		ids = append(ids, job.ID)
	}
	if n := jobs.Len(); n != 3 {
		t.Fatalf("Len = %d after pruning, want 3", n)
	}
	for _, id := range ids[:2] {
		if _, ok := jobs.Get(id); ok {
			t.Errorf("pruned job %s still present", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := jobs.Get(id); !ok {
			t.Errorf("recent job %s evicted", id)
		}
	}
}

func waitForState(t *testing.T, jobs *Jobs, id string, want JobState) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if job, ok := jobs.Get(id); ok && job.State == want {
			return
		}
		sleep()
	}
	job, _ := jobs.Get(id)
	t.Fatalf("job %s never reached %s: %+v", id, want, job)
}

// TestModelBuildConstructsOneIndexPerDataset pins the single-build data
// flow of the spindex refactor: a model build indexes exactly two datasets
// — the pooled trajectory partitions (once, shared by the grouping phase at
// every worker count) and the classifier's reference segments (once,
// memoized on the result) — and nothing else, at any worker count and with
// or without in-build parameter estimation.
func TestModelBuildConstructsOneIndexPerDataset(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		cfg := buildConfig()
		cfg.Workers = workers
		before := spindex.Builds()
		poolsBefore := segpool.Builds()
		m, err := BuildCtx(context.Background(), "count", trainingSet(), cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := spindex.Builds() - before; got != 2 {
			t.Errorf("workers=%d: model build constructed %d indexes, want 2 (segments + reference segments)", workers, got)
		}
		// The columnar pools mirror the indexes one-to-one: every searcher
		// build pools its dataset exactly once.
		if got := segpool.Builds() - poolsBefore; got != 2 {
			t.Errorf("workers=%d: model build constructed %d segment pools, want 2", workers, got)
		}
		// Classifying, and even reaching through to Result.Classify, must
		// reuse the already-built reference index — zero further builds,
		// and zero further pools.
		before = spindex.Builds()
		poolsBefore = segpool.Builds()
		if _, _, err := m.Classify(trainingSet()[0]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Result().Classify(trainingSet()[1]); err != nil {
			t.Fatal(err)
		}
		if got := spindex.Builds() - before; got != 0 {
			t.Errorf("workers=%d: serving classifies constructed %d extra indexes, want 0", workers, got)
		}
		if got := segpool.Builds() - poolsBefore; got != 0 {
			t.Errorf("workers=%d: serving classifies constructed %d extra segment pools, want 0", workers, got)
		}
		// The append path is growth, not construction: the model's one
		// segment index absorbs the new partitions in place — ZERO new index
		// builds, zero new pools, and the growth registers in the separate
		// Grows counter so the two operations never alias in these pins.
		extra := trainingSet()
		for i := range extra {
			extra[i].ID += 1000
		}
		before = spindex.Builds()
		poolsBefore = segpool.Builds()
		growsBefore := spindex.Grows()
		next, err := m.Append(context.Background(), extra)
		if err != nil {
			t.Fatal(err)
		}
		if got := spindex.Builds() - before; got != 0 {
			t.Errorf("workers=%d: append constructed %d indexes, want 0", workers, got)
		}
		if got := segpool.Builds() - poolsBefore; got != 0 {
			t.Errorf("workers=%d: append constructed %d segment pools, want 0", workers, got)
		}
		if got := spindex.Grows() - growsBefore; got < 1 {
			t.Errorf("workers=%d: append registered %d index growths, want ≥ 1", workers, got)
		}
		// The post-append classifier is rebuilt lazily: the first classify on
		// the new epoch constructs the reference index (a new dataset — the
		// representatives changed), exactly once, and later calls reuse it.
		before = spindex.Builds()
		if _, _, err := next.Classify(trainingSet()[0]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := next.Classify(trainingSet()[1]); err != nil {
			t.Fatal(err)
		}
		if got := spindex.Builds() - before; got != 1 {
			t.Errorf("workers=%d: first classify after append constructed %d indexes, want exactly 1", workers, got)
		}
	}
	// An auto-estimated build shares the one segment index between the
	// estimation sweep and the grouping phase: still two builds total, and
	// two pools.
	before := spindex.Builds()
	poolsBefore := segpool.Builds()
	if _, err := BuildCtx(context.Background(), "auto", trainingSet(), buildConfig(),
		&EstimateRange{Lo: 5, Hi: 60}, nil); err != nil {
		t.Fatal(err)
	}
	if got := spindex.Builds() - before; got != 2 {
		t.Errorf("auto build constructed %d indexes, want 2", got)
	}
	if got := segpool.Builds() - poolsBefore; got != 2 {
		t.Errorf("auto build constructed %d segment pools, want 2", got)
	}
}

// TestBuildWithEstimation covers the in-build §4.4 estimation path: the
// summary must report the chosen parameters, matching a standalone
// Pipeline.Estimate call.
func TestBuildWithEstimation(t *testing.T) {
	est, err := traclus.New(traclus.WithConfig(traclus.Config{
		CostAdvantage: 15, MinSegmentLength: 40,
	})).Estimate(context.Background(), trainingSet(), 5, 60)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildCtx(context.Background(), "auto", trainingSet(), buildConfig(),
		&EstimateRange{Lo: 5, Hi: 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := m.Summary()
	if sum.Eps != est.Eps {
		t.Errorf("Summary.Eps = %v, want the estimated %v", sum.Eps, est.Eps)
	}
	if want := float64(est.MinLnsLo+est.MinLnsHi) / 2; sum.MinLns != want {
		t.Errorf("Summary.MinLns = %v, want %v", sum.MinLns, want)
	}
	if m.Result().Estimated == nil {
		t.Error("Result.Estimated unset on an estimated build")
	}
}
