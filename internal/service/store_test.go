package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func sleep() { time.Sleep(time.Millisecond) }

// fakeModel builds a minimal model without running the pipeline — store
// semantics are independent of what the model holds.
func fakeModel(name string) *Model {
	return &Model{summary: Summary{Name: name}}
}

func TestStoreSingleFlight(t *testing.T) {
	store := NewStore(0)
	var builds atomic.Int64
	barrier := make(chan struct{})

	const callers = 16
	var wg sync.WaitGroup
	models := make([]*Model, callers)
	errs := make([]error, callers)
	ran := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			models[i], ran[i], errs[i] = store.GetOrBuild("shared", func() (*Model, error) {
				builds.Add(1)
				<-barrier // hold the build open so every caller piles up
				return fakeModel("shared"), nil
			})
		}(i)
	}
	// Wait until the one build is in flight, then release it.
	for builds.Load() == 0 {
		sleep()
	}
	close(barrier)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds ran, want exactly 1 (single-flight)", n)
	}
	builders := 0
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if models[i] != models[0] {
			t.Errorf("caller %d received a different model instance", i)
		}
		if ran[i] {
			builders++
		}
	}
	if builders != 1 {
		t.Errorf("%d callers report built=true, want 1", builders)
	}
	// A later call is a cache hit: still one build, built=false.
	_, built, err := store.GetOrBuild("shared", func() (*Model, error) {
		builds.Add(1)
		return fakeModel("shared"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if built {
		t.Error("cache hit reported built=true")
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds after cache hit, want 1", n)
	}
}

func TestStoreFailedBuildNotCached(t *testing.T) {
	store := NewStore(0)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := store.GetOrBuild("m", func() (*Model, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := store.Get("m"); ok {
		t.Fatal("failed build cached")
	}
	// The next request retries the build.
	if _, _, err := store.GetOrBuild("m", func() (*Model, error) { calls++; return fakeModel("m"), nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if _, ok := store.Get("m"); !ok {
		t.Fatal("successful retry not cached")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	store := NewStore(2)
	for _, name := range []string{"a", "b", "c"} {
		name := name
		if _, _, err := store.GetOrBuild(name, func() (*Model, error) { return fakeModel(name), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != 2 {
		t.Fatalf("Len = %d, want 2", store.Len())
	}
	if _, ok := store.Get("a"); ok {
		t.Error("oldest model survived eviction")
	}
	// Touch "b" so "c" becomes the eviction victim on the next insert.
	if _, ok := store.Get("b"); !ok {
		t.Fatal("b missing")
	}
	if _, _, err := store.GetOrBuild("d", func() (*Model, error) { return fakeModel("d"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get("c"); ok {
		t.Error("LRU order ignored: c survived although b was touched later")
	}
	if got := store.Names(); len(got) != 2 || got[0] != "d" || got[1] != "b" {
		t.Errorf("Names = %v, want [d b]", got)
	}
}

func TestStoreDelete(t *testing.T) {
	store := NewStore(0)
	if store.Delete("nope") {
		t.Error("deleted a model that never existed")
	}
	if _, _, err := store.GetOrBuild("m", func() (*Model, error) { return fakeModel("m"), nil }); err != nil {
		t.Fatal(err)
	}
	if !store.Delete("m") {
		t.Error("delete of a cached model failed")
	}
	if _, ok := store.Get("m"); ok {
		t.Error("model survived delete")
	}
}

func TestStoreWait(t *testing.T) {
	store := NewStore(0)
	if _, found, _ := store.WaitCtx(context.Background(), "absent"); found {
		t.Error("Wait found an entry that never existed")
	}
	// In-flight: Wait blocks until the build resolves and shares its model.
	barrier := make(chan struct{})
	go store.GetOrBuild("m", func() (*Model, error) {
		<-barrier
		return fakeModel("m"), nil
	})
	for !store.Pending("m") {
		sleep()
	}
	done := make(chan *Model, 1)
	go func() {
		m, found, err := store.WaitCtx(context.Background(), "m")
		if !found || err != nil {
			t.Errorf("Wait on in-flight build: found=%v err=%v", found, err)
		}
		done <- m
	}()
	close(barrier)
	if m := <-done; m == nil || m.Name() != "m" {
		t.Fatalf("Wait returned %v", m)
	}
	// Cached: Wait returns immediately.
	if m, found, err := store.WaitCtx(context.Background(), "m"); !found || err != nil || m.Name() != "m" {
		t.Fatalf("Wait on cached model: %v, %v, %v", m, found, err)
	}
}

func TestStoreConcurrentDistinctNames(t *testing.T) {
	store := NewStore(0)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("m%d", i%8)
			m, _, err := store.GetOrBuild(name, func() (*Model, error) { return fakeModel(name), nil })
			if err != nil || m.Name() != name {
				t.Errorf("GetOrBuild(%s) = %v, %v", name, m, err)
			}
		}(i)
	}
	wg.Wait()
	if store.Len() != 8 {
		t.Fatalf("Len = %d, want 8", store.Len())
	}
}

// TestStoreWaitCtx pins the bounded join: a waiter whose own context ends
// stops waiting (found=true, err=ctx.Err()) while the build it joined runs
// on unaffected; cache hits and absent names ignore the context entirely.
func TestStoreWaitCtx(t *testing.T) {
	s := NewStore(0)
	release := make(chan struct{})
	go s.GetOrBuild("slow", func() (*Model, error) {
		<-release
		return fakeModel("slow"), nil
	})
	for !s.Pending("slow") {
		sleep()
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, found, err := s.WaitCtx(ctx, "slow"); !found || !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitCtx on in-flight build under done ctx: found=%v err=%v", found, err)
	}
	if _, found, err := s.WaitCtx(ctx, "ghost"); found || err != nil {
		t.Fatalf("WaitCtx on absent name: found=%v err=%v", found, err)
	}

	close(release)
	m, found, err := s.WaitCtx(context.Background(), "slow")
	if !found || err != nil || m.Name() != "slow" {
		t.Fatalf("WaitCtx after release: found=%v err=%v", found, err)
	}
	// A ready model answers even under a done context (no waiting happens).
	if m, found, err := s.WaitCtx(ctx, "slow"); !found || err != nil || m.Name() != "slow" {
		t.Fatalf("WaitCtx cache hit under done ctx: found=%v err=%v", found, err)
	}
}

// TestDiskProbeIsNotABuild pins that DiskStore.Get's disk read-through
// stays out of the build single-flight. While Gets of a name that has no
// snapshot run in a loop, Pending never reports the name, every Get is a
// plain miss, and every GetOrBuild runs its own build instead of joining a
// probe and inheriting its miss. Before the probes had a flight of their
// own, a daemon's build request could join a concurrent Get's probe and
// fail with "no snapshot on disk".
func TestDiskProbeIsNotABuild(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	errBuild := errors.New("the caller's own build ran")
	const getters, rounds, builds = 4, 20, 200
	for round := 0; round < rounds; round++ {
		name := fmt.Sprintf("m%d", round)
		stop := make(chan struct{})
		bad := make(chan error, getters)
		var wg sync.WaitGroup
		for g := 0; g < getters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, found, err := ds.Get(name); found || err != nil {
						bad <- fmt.Errorf("Get(%q) = found %v, err %v; want a plain miss", name, found, err)
						return
					}
				}
			}()
		}
		for k := 0; k < builds; k++ {
			if ds.Pending(name) {
				t.Errorf("Pending(%q) reported a disk probe as a build in flight", name)
				break
			}
			if _, _, _, err := ds.GetOrBuild(name, func() (*Model, error) { return nil, errBuild }); !errors.Is(err, errBuild) {
				t.Errorf("GetOrBuild(%q) = %v; want its own build's error", name, err)
				break
			}
		}
		close(stop)
		wg.Wait()
		close(bad)
		for err := range bad {
			t.Error(err)
		}
		if t.Failed() {
			return
		}
	}
}
