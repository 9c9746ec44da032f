package service

// Incremental model growth: Model.Append extends a served clustering with
// new trajectories in O(Δ) — the appender grows the model's one spatial
// index in place, clusters only the new segments against it, and
// re-derives the served state — instead of rebuilding from scratch. The
// appended model is a NEW *Model value at the next epoch; the *Model a
// caller already holds never changes, so in-flight reads keep their
// snapshot-consistent view (bounded staleness: a reader is at most as stale
// as the model pointer it resolved before the append).
//
// Versioning. Every epoch of one served model shares a lineage. Appends
// serialise on the lineage lock and always apply to the newest epoch, no
// matter which epoch's *Model the caller invoked Append on — the underlying
// appender state is shared, so applying "to an old epoch" cannot fork
// history; it fast-forwards. Summary().Epoch exposes the version:
// a fresh build is epoch 0, each append increments it, and the snapshot
// format (v4) persists it.
//
// Staleness of derived state. The appended model's dendrogram is extended,
// not rebuilt: when the previous epoch's Result holds one, the appender
// extends it over the grown index (dendro.Dendrogram.Extend) into a new
// structure on the appended Result, bit-identical to a fresh build over the
// post-append items; the pre-append one is never mutated and never served
// at a later epoch (the extension regression test pins both). When the
// previous epoch held none, the first sweep query builds one lazily. The
// classifier is rebuilt lazily — so the append path itself constructs zero
// spatial indexes.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	traclus "repro"
)

// ErrNotAppendable reports an Append on a model that carries no training
// geometry to grow — one loaded from a snapshot, whose clustering state was
// deliberately not serialized. Rebuild the model from data to append to it.
var ErrNotAppendable = errors.New("service: model was loaded from a snapshot and cannot absorb appends; rebuild it from trajectories")

// lineage is the shared spine of one model's epochs: appends lock it,
// apply to head, and advance head to the new epoch. sweep is the last
// sweep's per-step quality states, which a later epoch's sweep on the same
// grid advances from (see sweep.go); sweeps swap it atomically, never
// under mu.
type lineage struct {
	mu    sync.Mutex
	head  *Model
	sweep atomic.Pointer[carried]
}

// Epoch returns the model's append epoch (0 = the original batch build).
func (m *Model) Epoch() int64 { return m.summary.Epoch }

// Appendable reports whether this model can absorb appended trajectories.
func (m *Model) Appendable() bool { return m.ap != nil && m.lin != nil }

// Append extends the model with new trajectories and returns the model at
// the next epoch. The receiver (and every earlier epoch) is untouched and
// keeps serving its own consistent state; callers that want the new data
// visible must publish the returned model (the daemon swaps it into its
// store). Appending through an older epoch's handle fast-forwards from the
// newest epoch — the returned model always reflects every append so far.
//
// The clustering contract is exact: the returned model's clusters,
// representatives, and counters equal what a from-scratch build over the
// concatenated trajectory set would produce (pinned by the append
// equivalence suite). Geometry follows the build: the new trajectories
// carry Times exactly when the model is spatiotemporal (its cluster windows
// are then recomputed over the full post-append item set); a geodesic model
// projects them through the frame resolved at build time; a model built
// with parameter estimation keeps its estimated ε/MinLns frozen. Invalid
// trajectories are rejected synchronously, before any state changes.
func (m *Model) Append(ctx context.Context, trs []traclus.Trajectory) (*Model, error) {
	if !m.Appendable() {
		return nil, ErrNotAppendable
	}
	m.lin.mu.Lock()
	defer m.lin.mu.Unlock()
	head := m.lin.head
	res, err := m.ap.Append(ctx, trs)
	if err != nil {
		return nil, err
	}
	next := head.nextEpoch(res, len(trs), pointCount(trs))
	m.lin.head = next
	return next, nil
}

// nextEpoch wraps the post-append clustering as the successor model of
// head. Called with the lineage locked.
func (head *Model) nextEpoch(res *traclus.Result, trajectories, points int) *Model {
	next := &Model{
		// res carries the extended dendrogram when head's Result held one.
		res: res,
		ap:  head.ap,
		lin: head.lin,
		cfg: head.cfg,
	}
	next.summary = head.summary
	next.summary.Clusters = len(res.Clusters)
	next.summary.TotalSegments = res.TotalSegments
	next.summary.NoiseSegments = res.NoiseSegments
	next.summary.RemovedClusters = res.RemovedClusters
	next.summary.Trajectories = head.summary.Trajectories + trajectories
	next.summary.Points = head.summary.Points + points
	// The result's quality advances from head's, which the build or the
	// previous append already computed: only pairs the append changed are
	// scored.
	next.summary.QMeasure = res.QMeasure()
	next.summary.Epoch = head.summary.Epoch + 1
	next.summary.BuiltAt = time.Now().UTC()
	next.summary.ClusterStats = res.ClusterStats()
	// The classifier over the post-append reference segments is built on
	// first use (Model.classifier) — Append itself constructs zero spatial
	// indexes.
	return next
}

func pointCount(trs []traclus.Trajectory) int {
	points := 0
	for _, tr := range trs {
		points += len(tr.Points)
	}
	return points
}
