package traclus

// Incremental appends: cluster under updates without rebuilding the model.
// An Appender is a Pipeline run that keeps its working state — the grown
// shared index and the incremental ε-graph of internal/segclust — so that
// appending Δ trajectories costs O(Δ) ε-range queries plus two cheap O(n)
// label passes, instead of the full partition+group+sweep rebuild.
//
// The contract is append-built ≡ batch-built: after any sequence of appends
// the Result equals a from-scratch run over the concatenated trajectories —
// same clusters, representatives, RemovedClusters, and cluster windows (the
// one legitimate difference is DistCalls; see internal/segclust's
// incremental package comment). Two pins make this hold across geometries:
// a geodesic appender projects appended trajectories through the frame the
// initial build resolved (a batch run over the concatenation may resolve a
// different frame from the enlarged bounds — batch comparisons must pin the
// frame in Config.Geometry), and an estimation appender keeps the ε/MinLns
// the initial build estimated (parameters are frozen at build time; they are
// not re-estimated per append).
//
// A build is an append to nothing, so every layer has one body that serves
// both. The grouping appends the Δ items to the retained ε-graph, as a build
// appends every item to an empty one. The sweep phase (core.AssembleCtx)
// gets the previous epoch's Output, as a build gets none, and re-runs only
// for dirtied clusters: a cluster whose member set is unchanged keeps its
// representative — the sweep is a deterministic function of (member
// segments, weights, MinLns, γ), all unchanged — so appends that touch k
// clusters sweep k clusters, not all of them. The multi-ε dendrogram is
// maintained the same way: when the previous Result holds one, the appended
// Result holds its extension (dendro.Dendrogram.Extend, which a build
// applies to the empty dendrogram) — the Δ's range queries on the grown
// index, no rebuild; when it holds none, Result.DendrogramAt builds one on
// first use (see ARCHITECTURE.md "Incremental updates").

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/segclust"
)

// Appender is a clustering that stays current under appended trajectories.
// Build one with Pipeline.NewAppender; each Append folds new trajectories
// in and returns the updated Result. An Appender is safe for concurrent use
// — appends serialise on an internal lock — but each append mutates the
// retained index, so Results are immutable snapshots while the Appender
// itself is the single writer.
type Appender struct {
	mu       sync.Mutex
	progress ProgressFunc
	ccfg     core.Config // resolved: post-estimation ε/MinLns, geodesic frame filled in
	inc      *segclust.Incremental
	res      *Result
}

// Result returns the clustering over everything appended so far. The value
// is an immutable snapshot; later appends produce new Results.
func (a *Appender) Result() *Result {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.res
}

// NewAppender runs the pipeline over trs exactly like Run — the same build,
// so the same phases, progress events and Result, bit-identical at every
// worker count — but retains the grouping state so Append can extend it;
// every index backend grows in place.
func (p *Pipeline) NewAppender(ctx context.Context, trs []Trajectory) (*Appender, error) {
	res, inc, err := p.cluster(ctx, trs, true)
	if err != nil {
		return nil, err
	}
	return &Appender{progress: p.progress, ccfg: res.cfg, inc: inc, res: res}, nil
}

// Append folds trs into the clustering and returns the updated Result: the
// new trajectories are MDL-partitioned, their segments run ε-range queries
// against the grown index, the ε-graph absorbs the new edges, and only
// dirtied clusters re-sweep (core.AssembleCtx, handed the previous epoch's
// Output). Empty trs returns the current Result. The trajectories follow
// the build's geometry: they carry Times exactly when it is spatiotemporal,
// and a geodesic appender projects them through the frame its build
// resolved.
//
// A failed or cancelled Append leaves the Appender unusable for further
// appends (the grown index and the derived labels may disagree); the last
// successful Result remains valid, and the caller rebuilds from scratch.
func (a *Appender) Append(ctx context.Context, trs []Trajectory) (*Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := validateTrajectories(trs, a.ccfg.Geometry); err != nil {
		return nil, err
	}
	if len(trs) == 0 {
		return a.res, nil
	}
	if a.ccfg.Geometry.Kind == geometry.Geodesic {
		// The frame was resolved at build time and rides a.ccfg, so appended
		// trajectories project into the identical working plane.
		trs, _ = projectGeodesic(trs, a.ccfg.Geometry)
	}
	rep := newProgressReporter(a.progress)
	rep.begin(PhasePartition, len(trs))
	items, err := core.PartitionAllCtx(ctx, trs, a.ccfg, rep.tick)
	if err != nil {
		return nil, stageError(ctx, PhasePartition, err)
	}
	rep.finish()

	rep.begin(PhaseGroup, len(items))
	grouping, err := a.inc.AppendCtx(ctx, items)
	if err != nil {
		return nil, stageError(ctx, PhaseGroup, err)
	}
	rep.finish()

	rep.begin(PhaseRepresent, len(grouping.Clusters))
	out, err := core.AssembleCtx(ctx, a.inc.Shared().Items(), grouping, a.ccfg, a.res.out, rep.tick)
	if err != nil {
		return nil, stageError(ctx, PhaseRepresent, err)
	}
	rep.finish()

	res := newResult(out, a.ccfg)
	res.Estimated = a.res.Estimated
	// The new Result's quality advances from the previous epoch's state if
	// that is already computed; it never forces the computation, and holds
	// the state, not the previous Result.
	res.qbase = a.res.q.Load()
	// The previous epoch's dendrogram, if it holds one, extends over the
	// grown index, which now holds exactly its items plus Δ. A lazy build
	// still in flight on it is not waited for: without one, or with a
	// narrower one, the new Result is still correct, and DendrogramAt builds
	// on first use. A failed extension (a cancelled ctx) drops only the
	// dendrogram, not the append.
	if prev := a.res.den.Load(); prev != nil {
		if d, err := prev.Extend(ctx, a.inc.Shared(), a.ccfg.Workers); err == nil {
			res.den.Store(d)
		}
	}
	a.res = res
	return res, nil
}
