package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	traclus "repro"
	"repro/internal/synth"
	"repro/internal/trackio"
)

// The clustering parameters every workload shares: the hurricane
// yardstick's ε, MinLns, cost advantage and minimum segment length, and the
// ε range auto estimation searches.
const (
	eps              = 30.0
	minLns           = 6.0
	costAdvantage    = 15.0
	minSegmentLength = 40.0
	autoLo, autoHi   = 5.0, 60.0
)

// Query and append shapes: classify requests carry batchSize trajectories
// drawn round-robin from a pool of poolSize. serve-mixed runs rounds of
// mixedCycles cycles, each from a freshly built model. Every write — a
// library build, or a serve-mixed append — is followed by batchReads
// classify requests. That read:write ratio is not taken from any measured
// traffic; it only makes reads outnumber writes, so that the median read is
// one against a warm classifier and the first read after each write, which
// builds the classifier's index, is reported on its own.
const (
	poolSize    = 4096
	batchSize   = 16
	mixedCycles = 20
	batchReads  = 16
)

// Id bases keep query and appended trajectories disjoint from the training
// set (ids 0..n-1) and from each other.
const (
	poolIDBase   = 1_000_000
	appendIDBase = 2_000_000
)

// workload is one input set and traffic mix. tracks sizes the training set.
// The ROADMAP's 4800-track yardstick is cut down so that one operation takes
// well under a second on one CPU: a run then holds enough operations for its
// median to ride out the host's bursts of slowness, and every run fits the
// benchmark's time budget.
type workload struct {
	name   string
	tracks int
	auto   bool // build WithEstimation(autoLo, autoHi) instead of fixed ε/MinLns
	serve  bool // drive traclusd over HTTP instead of calling the library
	mixed  bool // serve-mixed: appends, sweeps and cuts between the reads
}

var workloads = []workload{
	// Grouping is most of this build, so any change to the index, the
	// candidate generation or the distance kernel shows here.
	{name: "build-fixed", tracks: 1200},
	// The dendrogram build and the §4.4 annealer dominate; grouping runs at
	// the smaller estimated ε. Counter-workload for grouping changes.
	{name: "build-auto", tracks: 800, auto: true},
	// Read-only serving: HTTP, CSV decoding, the classifier's nearest
	// search and JSON; never touches group, dendro or quality.
	{name: "serve-classify", tracks: 1200, serve: true},
	// Writes beside reads: every append invalidates the dendrogram, so each
	// sweep rebuilds it, and the classifier, so the next read rebuilds its
	// index.
	{name: "serve-mixed", tracks: 400, serve: true, mixed: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the library configuration of w's model. Workers 0 uses every
// CPU the Go runtime may use, as the daemon does; see sutProcs.
func (w workload) config() traclus.Config {
	return traclus.Config{Eps: eps, MinLns: minLns, CostAdvantage: costAdvantage, MinSegmentLength: minSegmentLength}
}

// options are the Pipeline options that build w's model.
func (w workload) options() []traclus.Option {
	opts := []traclus.Option{traclus.WithConfig(w.config())}
	if w.auto {
		opts = append(opts, traclus.WithEstimation(autoLo, autoHi))
	}
	return opts
}

// hurricanes generates n synthetic hurricane tracks from seed with ids
// starting at idBase.
func hurricanes(n int, seed int64, idBase int) []traclus.Trajectory {
	cfg := synth.DefaultHurricaneConfig()
	cfg.NumTracks, cfg.Seed = n, seed
	trs := synth.Hurricanes(cfg)
	for i := range trs {
		trs[i].ID = idBase + i
	}
	return trs
}

// queries holds the classify traffic: n pool trajectories packed batchSize
// to a CSV body, each body with the trajectories as the daemon decodes them
// (coordinates rounded by the CSV encoding), so in-process answers are
// computed on exactly what the daemon sees. The library workloads use a
// pool of one build's reads, so that the benchmark's own data does not
// weigh in their peak RSS.
type queries struct {
	bodies [][]byte
	trs    [][]traclus.Trajectory
}

func newQueries(seed int64, n int) (*queries, error) {
	pool := hurricanes(n, seed+1, poolIDBase)
	q := &queries{}
	for lo := 0; lo < len(pool); lo += batchSize {
		body, err := csvBody(pool[lo:min(lo+batchSize, len(pool))])
		if err != nil {
			return nil, err
		}
		trs, err := trackio.ReadCSV(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("decoding classify body: %w", err)
		}
		q.bodies = append(q.bodies, body)
		q.trs = append(q.trs, trs)
	}
	return q, nil
}

// appendTracks are the trajectories serve-mixed and the append probes add,
// one per append.
func appendTracks(seed int64) []traclus.Trajectory {
	return hurricanes(mixedCycles, seed+2, appendIDBase)
}

func csvBody(trs []traclus.Trajectory) ([]byte, error) {
	var b bytes.Buffer
	if err := trackio.WriteCSV(&b, trs); err != nil {
		return nil, fmt.Errorf("encoding CSV: %w", err)
	}
	return b.Bytes(), nil
}

// clusterView is the part of a cluster the fingerprint covers; the public
// Result and the engine's core.Output expose the same three fields.
type clusterView struct {
	segments       []traclus.Segment
	trajectories   []int
	representative []traclus.Point
}

// fingerprint hashes a clustering — the counts, every cluster's member
// segments, trajectories and representative, and the estimated parameters
// of an auto build — so that two runs can be compared bit for bit. Distance
// call counts are deliberately left out: a pruning change may lower them
// without changing the clustering.
func fingerprint(total, noise, removed int, est *traclus.Estimate, clusters []clusterView) string {
	h := sha256.New()
	putInt(h, total, noise, removed, len(clusters))
	if est != nil {
		putFloat(h, est.Eps)
		putInt(h, est.MinLnsLo, est.MinLnsHi)
	}
	for _, c := range clusters {
		putInt(h, len(c.segments))
		for _, s := range c.segments {
			putFloat(h, s.Start.X, s.Start.Y, s.End.X, s.End.Y)
		}
		putInt(h, c.trajectories...)
		putInt(h, len(c.representative))
		for _, p := range c.representative {
			putFloat(h, p.X, p.Y)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func resultFingerprint(res *traclus.Result) string {
	cs := make([]clusterView, len(res.Clusters))
	for i, c := range res.Clusters {
		cs[i] = clusterView{c.Segments, c.Trajectories, c.Representative}
	}
	return fingerprint(res.TotalSegments, res.NoiseSegments, res.RemovedClusters, res.Estimated, cs)
}

func putInt(h hash.Hash, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func putFloat(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
