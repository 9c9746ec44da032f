package main

// Sharded-serving tests over a real in-process replica set: N httptest
// daemons wired into one consistent-hash ring. The servers need each
// other's URLs before they exist, so each listener starts on a swappable
// placeholder handler and the real servers are installed once every URL
// is known.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ring"
	"repro/internal/service"

	traclus "repro"
)

// swapHandler lets an httptest server start before its real handler is
// built.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.RLock()
	h := sh.h
	sh.mu.RUnlock()
	if h == nil {
		http.Error(w, "replica not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (sh *swapHandler) set(h http.Handler) {
	sh.mu.Lock()
	sh.h = h
	sh.mu.Unlock()
}

// replicaSet boots n sharded daemons that know each other, returning the
// servers, their base URLs, and a per-replica clustering-run counter.
func replicaSet(t *testing.T, n int) (servers []*server, urls []string, builds []*atomic.Int64) {
	t.Helper()
	swaps := make([]*swapHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	builds = make([]*atomic.Int64, n)
	for i := 0; i < n; i++ {
		builds[i] = &atomic.Int64{}
		counter := builds[i]
		s, err := newServer(serverConfig{
			workers:   1,
			maxBuilds: 8,
			dataDir:   t.TempDir(),
			peers:     urls,
			self:      urls[i],
			buildModel: func(ctx context.Context, name string, trs []traclus.Trajectory, cfg traclus.Config, est *service.EstimateRange, progress func(string, float64)) (*service.Model, error) {
				counter.Add(1)
				return service.BuildCtx(ctx, name, trs, cfg, est, progress)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		swaps[i].set(s)
	}
	return servers, urls, builds
}

// TestShardedBuildDedupe is the scale-out acceptance test: every replica
// receives a build request for the same model concurrently, and exactly
// one clustering run happens fleet-wide — on the owner.
func TestShardedBuildDedupe(t *testing.T) {
	const n = 3
	servers, urls, builds := replicaSet(t, n)
	_, csv := trainingCSV(t)
	const name = "shared-model"
	ownerURL := ring.New(urls, 0).Owner(name)
	ownerIdx := slices.Index(urls, ownerURL)
	if ownerIdx < 0 {
		t.Fatalf("owner %q not in replica set %v", ownerURL, urls)
	}

	jobs := make([]service.Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code := postBuild(t, urls[i], BuildRequest{Name: name, Data: csv, Config: corridorConfig()}, &jobs[i])
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("replica %d: POST = %d", i, code)
			}
		}(i)
	}
	wg.Wait()

	// Every job the fleet reported lives on the owner; poll it there.
	for i := range jobs {
		if jobs[i].ID == "" {
			continue // cache-hit response carries no job
		}
		if done := awaitJob(t, ownerURL, jobs[i].ID); done.State != service.JobDone {
			t.Fatalf("job %d finished as %s: %s", i, done.State, done.Error)
		}
	}
	var total int64
	for i, b := range builds {
		c := b.Load()
		total += c
		if i != ownerIdx && c != 0 {
			t.Errorf("non-owner replica %d ran %d clustering builds", i, c)
		}
	}
	if total != 1 {
		t.Fatalf("%d clustering runs across the fleet for %d duplicate requests, want exactly 1", total, n)
	}
	// The owner holds the model; the others served by proxy only.
	if _, ok, err := servers[ownerIdx].store.Get(name); err != nil || !ok {
		t.Errorf("owner does not hold the model it built (ok=%v err=%v)", ok, err)
	}
}

// TestShardedOwnerHeader pins that a build response from a non-owner
// names the owner replica, so clients know where the job lives.
func TestShardedOwnerHeader(t *testing.T) {
	_, urls, _ := replicaSet(t, 3)
	_, csv := trainingCSV(t)
	const name = "headed"
	ownerURL := ring.New(urls, 0).Owner(name)
	nonOwner := slices.IndexFunc(urls, func(u string) bool { return u != ownerURL })

	body, err := json.Marshal(BuildRequest{Name: name, Data: csv, Config: corridorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(urls[nonOwner]+"/v1/models", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(ownerHeader); got != ownerURL {
		t.Errorf("%s = %q, want owner %q", ownerHeader, got, ownerURL)
	}
}

// TestShardedClassifyFetchesSnapshot: a non-owner replica serves classify
// for a model built on the owner by fetching the snapshot once, caching
// it, and classifying locally — no clustering anywhere beyond the one
// owner-side build, and replicas agree bit-for-bit.
func TestShardedClassifyFetchesSnapshot(t *testing.T) {
	servers, urls, builds := replicaSet(t, 3)
	_, csv := trainingCSV(t)
	const name = "fetched"
	ownerURL := ring.New(urls, 0).Owner(name)
	ownerIdx := slices.Index(urls, ownerURL)
	nonOwner := (ownerIdx + 1) % len(urls)

	// Build via the owner directly.
	var job service.Job
	if code := postBuild(t, ownerURL, BuildRequest{Name: name, Data: csv, Config: corridorConfig()}, &job); code != http.StatusAccepted {
		t.Fatalf("owner POST = %d", code)
	}
	if done := awaitJob(t, ownerURL, job.ID); done.State != service.JobDone {
		t.Fatalf("owner build failed: %s", done.Error)
	}
	servers[ownerIdx].store.Quiesce()

	// Classify on a non-owner: fetch-through, then local serving.
	var got struct {
		Results []service.Assignment `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, urls[nonOwner]+"/v1/models/"+name+"/classify", csv, &got); code != http.StatusOK {
		t.Fatalf("non-owner classify = %d", code)
	}
	if len(got.Results) == 0 {
		t.Fatal("no classify results via non-owner")
	}
	if !slices.Contains(servers[nonOwner].store.Names(), name) {
		t.Error("non-owner did not cache the fetched model")
	}
	var total int64
	for _, b := range builds {
		total += b.Load()
	}
	if total != 1 {
		t.Fatalf("%d clustering runs after fetch-through, want 1", total)
	}

	// Second classify is local, and agrees with the owner's answers.
	var local, viaOwner struct {
		Results []service.Assignment `json:"results"`
	}
	if code := doJSON(t, http.MethodPost, urls[nonOwner]+"/v1/models/"+name+"/classify", csv, &local); code != http.StatusOK {
		t.Fatalf("second non-owner classify = %d", code)
	}
	if code := doJSON(t, http.MethodPost, ownerURL+"/v1/models/"+name+"/classify", csv, &viaOwner); code != http.StatusOK {
		t.Fatalf("owner classify = %d", code)
	}
	if len(local.Results) != len(viaOwner.Results) {
		t.Fatalf("replica result counts differ: %d vs %d", len(local.Results), len(viaOwner.Results))
	}
	for i := range viaOwner.Results {
		if local.Results[i] != viaOwner.Results[i] {
			t.Fatalf("result %d differs across replicas: %+v vs %+v", i, local.Results[i], viaOwner.Results[i])
		}
	}

	// A model nobody built 404s through the fetch path too (owner answers
	// the peer lookup with 404, not an error).
	if code := doJSON(t, http.MethodPost, urls[nonOwner]+"/v1/models/ghost/classify", csv, nil); code != http.StatusNotFound {
		t.Fatalf("classify of absent model via non-owner = %d, want 404", code)
	}
}
