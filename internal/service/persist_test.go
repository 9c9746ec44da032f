package service

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	traclus "repro"
	"repro/internal/snapshot"
	"repro/internal/spindex"
	"repro/internal/synth"
)

// probeSet returns trajectories the training models never saw, regenerated
// from a different corridor seed so classification exercises real nearest-
// cluster work.
func probeSet() []traclus.Trajectory {
	return synth.CorridorScene(2, 6, 20, 4, 17)
}

// TestSnapshotClassifyIdentity is the identity acceptance test: for every
// index backend, Load(Save(m)) classifies the probe set bit-identically to
// the original model (same cluster, same float64 distance bits), at every
// worker count.
func TestSnapshotClassifyIdentity(t *testing.T) {
	probes := probeSet()
	for _, kind := range []traclus.IndexBackend{traclus.GridIndexBackend(), traclus.RTreeIndexBackend(), traclus.BruteIndexBackend()} {
		cfg := buildConfig()
		cfg.Index = kind
		m, err := BuildCtx(context.Background(), "identity-"+kind.Name(), trainingSet(), cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := m.EncodeSnapshot()
		if err != nil {
			t.Fatalf("%v: encode: %v", kind.Name(), err)
		}
		loaded, err := DecodeModel(data)
		if err != nil {
			t.Fatalf("%v: decode: %v", kind.Name(), err)
		}
		if loaded.Result() != nil {
			t.Errorf("%v: loaded model has a non-nil Result", kind.Name())
		}
		if got, want := loaded.Summary(), m.Summary(); got.Clusters != want.Clusters ||
			got.TotalSegments != want.TotalSegments || got.QMeasure != want.QMeasure {
			t.Errorf("%v: summary mismatch: got %+v want %+v", kind.Name(), got, want)
		}
		for _, workers := range []int{1, 2, 4, 0} {
			want := m.ClassifyBatch(context.Background(), probes, workers)
			got := loaded.ClassifyBatch(context.Background(), probes, workers)
			for i := range want {
				if got[i].Cluster != want[i].Cluster ||
					math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) ||
					got[i].Err != want[i].Err {
					t.Fatalf("%v workers=%d probe %d: loaded model classified (%d, %x, %q), original (%d, %x, %q)",
						kind.Name(), workers, i,
						got[i].Cluster, math.Float64bits(got[i].Distance), got[i].Err,
						want[i].Cluster, math.Float64bits(want[i].Distance), want[i].Err)
				}
			}
		}
	}
}

// TestSnapshotExportStable pins that exporting an imported model returns
// the retained snapshot: Encode(Load(bytes)) == bytes.
func TestSnapshotExportStable(t *testing.T) {
	m, err := BuildCtx(context.Background(), "stable", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	re, err := loaded.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(data) {
		t.Fatalf("re-export differs: %d vs %d bytes", len(re), len(data))
	}
}

// TestSnapshotLoadBuildsOneIndex pins the restart cost: rebuilding a model
// from its snapshot constructs exactly one spatial index (the classifier's
// reference index) and runs zero clustering passes.
func TestSnapshotLoadBuildsOneIndex(t *testing.T) {
	m, err := BuildCtx(context.Background(), "one-index", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := spindex.Builds()
	if _, err := DecodeModel(data); err != nil {
		t.Fatal(err)
	}
	if got := spindex.Builds() - before; got != 1 {
		t.Errorf("loading a snapshot constructed %d indexes, want 1", got)
	}
}

// TestSnapshotZeroClusterModel round-trips a model whose clustering found
// nothing: it must survive the codec and keep returning ErrNoClusters.
func TestSnapshotZeroClusterModel(t *testing.T) {
	cfg := buildConfig()
	cfg.MinLns = 1e6
	m, err := BuildCtx(context.Background(), "empty", trainingSet(), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Summary().Clusters != 0 {
		t.Skip("scene unexpectedly clustered at MinLns=1e6")
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loaded.Classify(probeSet()[0]); !errors.Is(err, traclus.ErrNoClusters) {
		t.Errorf("Classify on empty loaded model: %v, want ErrNoClusters", err)
	}
}

// TestSnapshotBackendNames pins the one name per backend on disk: a fresh
// brute model exports its backend's Name(), "brute"; a snapshot carrying
// the aliases "scan" or "none" decodes to a brute-backed model that
// classifies like the original.
func TestSnapshotBackendNames(t *testing.T) {
	ctx := context.Background()
	cfg := buildConfig()
	cfg.Index = traclus.BruteIndexBackend()
	m, err := BuildCtx(ctx, "brute", trainingSet(), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sm.Config.Index != "brute" {
		t.Errorf("brute model exports index %q, want \"brute\"", sm.Config.Index)
	}
	want := m.ClassifyBatch(ctx, probeSet(), 1)
	for _, alias := range []string{"scan", "none"} {
		old := *sm
		old.Config.Index = alias
		data, err := snapshot.Encode(&old)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := DecodeModel(data)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if got := loaded.Config().Index; got != traclus.BruteIndexBackend() {
			t.Errorf("%s: decoded to the %s backend, want brute", alias, got.Name())
		}
		sameAssignments(t, alias, want, loaded.ClassifyBatch(ctx, probeSet(), 1))
	}
}

func TestValidModelName(t *testing.T) {
	for name, want := range map[string]bool{
		"taxi":                   true,
		"a":                      true,
		"Model-1.2_v":            true,
		"":                       false,
		".hidden":                false,
		"-dash":                  false,
		"a/b":                    false,
		"a b":                    false,
		"..":                     false,
		string(make([]byte, 65)): false,
	} {
		if got := ValidModelName(name); got != want {
			t.Errorf("ValidModelName(%q) = %v, want %v", name, got, want)
		}
	}
}

// --- DiskStore ---

func buildFor(name string) func() (*Model, error) {
	return func() (*Model, error) {
		return BuildCtx(context.Background(), name, trainingSet(), buildConfig(), nil, nil)
	}
}

func failBuild(t *testing.T) func() (*Model, error) {
	return func() (*Model, error) {
		t.Helper()
		t.Error("build ran where a disk load should have served")
		return nil, errors.New("unexpected build")
	}
}

func TestDiskStoreWriteBehindAndRestart(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, built, loaded, err := ds.GetOrBuild("survivor", buildFor("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	if !built || loaded {
		t.Fatalf("first GetOrBuild: built=%v loaded=%v, want build", built, loaded)
	}
	ds.Quiesce()
	if err := ds.SaveErr(); err != nil {
		t.Fatalf("write-behind save failed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "survivor.snap")); err != nil {
		t.Fatalf("snapshot file missing after Quiesce: %v", err)
	}

	// "Restart": a fresh DiskStore over the same directory must serve the
	// model from disk — the build func must never run.
	ds2, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	m2, built, loaded, err := ds2.GetOrBuild("survivor", failBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	if built || !loaded {
		t.Fatalf("restart GetOrBuild: built=%v loaded=%v, want disk load", built, loaded)
	}
	if ds2.Loads() != 1 {
		t.Errorf("Loads = %d, want 1", ds2.Loads())
	}
	// And the reloaded model classifies identically to the original.
	probe := probeSet()[0]
	c1, d1, err1 := m.Classify(probe)
	c2, d2, err2 := m2.Classify(probe)
	if c1 != c2 || math.Float64bits(d1) != math.Float64bits(d2) || (err1 == nil) != (err2 == nil) {
		t.Errorf("reloaded model classifies (%d, %x, %v), original (%d, %x, %v)",
			c2, math.Float64bits(d2), err2, c1, math.Float64bits(d1), err1)
	}
	// Second Get is a pure cache hit: no further disk loads.
	if _, found, err := ds2.Get("survivor"); err != nil || !found {
		t.Fatalf("Get after load: found=%v err=%v", found, err)
	}
	if ds2.Loads() != 1 {
		t.Errorf("cache hit re-read disk: Loads = %d", ds2.Loads())
	}
}

func TestDiskStoreGetReadsThrough(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ds.GetOrBuild("rt", buildFor("rt")); err != nil {
		t.Fatal(err)
	}
	ds.Quiesce()

	ds2, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := ds2.Get("rt"); err != nil || !found {
		t.Fatalf("Get read-through: found=%v err=%v", found, err)
	}
	if _, found, err := ds2.Get("nope"); err != nil || found {
		t.Fatalf("Get of absent model: found=%v err=%v", found, err)
	}
}

func TestDiskStorePutImport(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildCtx(context.Background(), "imported", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("imported", m); err != nil {
		t.Fatal(err)
	}
	// Synchronous: the file exists the moment Put returns.
	if _, err := os.Stat(filepath.Join(dir, "imported.snap")); err != nil {
		t.Fatalf("snapshot file missing right after Put: %v", err)
	}
	if _, found, err := ds.Get("imported"); err != nil || !found {
		t.Fatalf("Get after Put: found=%v err=%v", found, err)
	}
	if !ds.Delete("imported") {
		t.Error("Delete returned false")
	}
	if _, err := os.Stat(filepath.Join(dir, "imported.snap")); !os.IsNotExist(err) {
		t.Errorf("snapshot file survives Delete: %v", err)
	}
}

func TestStorePutInFlightConflict(t *testing.T) {
	s := NewStore(4)
	started := make(chan struct{})
	release := make(chan struct{})
	go s.GetOrBuild("busy", func() (*Model, error) {
		close(started)
		<-release
		return BuildCtx(context.Background(), "busy", trainingSet(), buildConfig(), nil, nil)
	})
	<-started
	m, err := BuildCtx(context.Background(), "busy", trainingSet(), buildConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("busy", m); !errors.Is(err, ErrBuildInFlight) {
		t.Errorf("Put during in-flight build: %v, want ErrBuildInFlight", err)
	}
	close(release)
	if _, _, err := s.WaitCtx(context.Background(), "busy"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("busy", m); err != nil {
		t.Errorf("Put after build resolved: %v", err)
	}
}

// TestDiskStoreCorruptFile pins the two corruption behaviours: Get surfaces
// the typed decode error, while GetOrBuild falls back to a real build so a
// damaged file cannot brick the name.
func TestDiskStoreCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.snap"), []byte("TRACSNAPgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := NewDiskStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, found, err := ds.Get("bad")
	var ce *snapshot.CorruptError
	if !found || !errors.As(err, &ce) {
		t.Fatalf("Get on corrupt snapshot: found=%v err=%v, want *CorruptError", found, err)
	}
	if _, built, loaded, err := ds.GetOrBuild("bad", buildFor("bad")); err != nil || !built || loaded {
		t.Fatalf("GetOrBuild over corrupt snapshot: built=%v loaded=%v err=%v, want fresh build", built, loaded, err)
	}
	ds.Quiesce()
}

// TestDiskStoreMemoryOnly pins that an empty dir degrades to the pure LRU.
func TestDiskStoreMemoryOnly(t *testing.T) {
	ds, err := NewDiskStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, built, loaded, err := ds.GetOrBuild("mem", buildFor("mem")); err != nil || !built || loaded {
		t.Fatalf("built=%v loaded=%v err=%v", built, loaded, err)
	}
	ds.Quiesce()
	if ds.Saves() != 0 {
		t.Errorf("memory-only store wrote %d snapshots", ds.Saves())
	}
}

// --- benchmarks (committed as BENCH_pr7.json in CI) ---

// benchModels are the snapshot benchmarks' cases. fixed is a fixed-ε build
// whose snapshot has no dendrogram section. auto is built like the
// benchmark's build-auto workload, 800 synth.Hurricanes tracks (seed 1) with
// ε estimated over [5, 60]: its snapshot carries the estimation dendrogram,
// so a restore runs dendro.FromSnapshot.
func benchModels(b *testing.B) []benchCase {
	b.Helper()
	fixed, err := BuildCtx(context.Background(), "bench", synth.CorridorScene(3, 12, 30, 4, 7), buildConfig(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	auto, err := benchAutoModel()
	if err != nil {
		b.Fatal(err)
	}
	return []benchCase{{"fixed", fixed}, {"auto", auto}}
}

type benchCase struct {
	name string
	m    *Model
}

// benchAutoModel builds the auto case once per process; the benchmarks only
// read it.
var benchAutoModel = sync.OnceValues(func() (*Model, error) {
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks, cfg.Seed = 800, 1
	return BuildCtx(context.Background(), "bench", synth.Hurricanes(cfg), buildConfig(), &EstimateRange{Lo: 5, Hi: 60}, nil)
})

func BenchmarkSnapshotEncode(b *testing.B) {
	for _, bm := range benchModels(b) {
		sm, err := bm.m.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		data, err := snapshot.Encode(sm)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("model="+bm.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := snapshot.Encode(sm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	for _, bm := range benchModels(b) {
		data, err := bm.m.EncodeSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("model="+bm.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := snapshot.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiskStoreReadThrough measures the full restart path: cache miss
// → file read → decode → classifier index rebuild.
func BenchmarkDiskStoreReadThrough(b *testing.B) {
	for _, bm := range benchModels(b) {
		dir := b.TempDir()
		ds, err := NewDiskStore(dir, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.Put("bench", bm.m); err != nil {
			b.Fatal(err)
		}
		b.Run("model="+bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cold, err := NewDiskStore(dir, 4)
				if err != nil {
					b.Fatal(err)
				}
				if _, found, err := cold.Get("bench"); err != nil || !found {
					b.Fatalf("found=%v err=%v", found, err)
				}
			}
		})
	}
}
