package mdl

// This file holds the worker-pool side of the MDL phase: partitioning is
// embarrassingly parallel across trajectories (each partitioning reads only
// its own points), so PartitionAll fans trajectories out over a pool of
// Partitioners, one per worker, each with private scratch buffers. Results
// land in per-trajectory slots, so the output is identical to the serial
// loop regardless of scheduling.

import (
	"context"

	"repro/internal/geom"
	"repro/internal/geometry"
	"repro/internal/par"
	"repro/internal/segpool"
)

// Partitioner partitions trajectories while reusing internal scratch
// (the dedup point and timestamp buffers, the raw segments' kernel views
// and the characteristic-point index buffer), so a worker processing many
// trajectories allocates only the output. A Partitioner is not safe for
// concurrent use; give each goroutine its own.
type Partitioner struct {
	cfg   Config
	cps   []int         // characteristic-point scratch
	pts   []geom.Point  // deduplicated-point scratch
	tms   []float64     // deduplicated-timestamp scratch (timed trajectories)
	views []segpool.Seg // raw segment k = pts[k]→pts[k+1] as a kernel view
}

// NewPartitioner returns a Partitioner for the given configuration.
func NewPartitioner(cfg Config) *Partitioner { return &Partitioner{cfg: cfg} }

// Partition behaves exactly like the package-level Partition but reuses the
// receiver's scratch buffers across calls. On a timed trajectory (tr.Times
// set, index-aligned with the points) it also returns each segment's span,
// the [t_start, t_end] of its two characteristic points, index-aligned with
// the segments; spans is nil otherwise. Dedup decides on point equality
// alone and keeps a repeated point's first timestamp, so the segments are
// the same bits with or without the time column.
func (p *Partitioner) Partition(tr geom.Trajectory) (segs []geom.Segment, spans []geometry.Interval) {
	p.pts, p.tms = p.pts[:0], p.tms[:0]
	for i, q := range tr.Points {
		if len(p.pts) == 0 || !q.Eq(p.pts[len(p.pts)-1]) {
			p.pts = append(p.pts, q)
			if tr.Times != nil {
				p.tms = append(p.tms, tr.Times[i])
			}
		}
	}
	pts := p.pts
	if len(pts) < 2 {
		return nil, nil
	}
	cps := p.characteristic(pts)
	segs = make([]geom.Segment, 0, len(cps)-1)
	if tr.Times != nil {
		spans = make([]geometry.Interval, 0, len(cps)-1)
	}
	for i := 1; i < len(cps); i++ {
		s := geom.Segment{Start: pts[cps[i-1]], End: pts[cps[i]]}
		if s.IsDegenerate() || s.Length() < p.cfg.MinLength {
			continue
		}
		segs = append(segs, s)
		if spans != nil {
			spans = append(spans, geometry.Interval{Start: p.tms[cps[i-1]], End: p.tms[cps[i]]})
		}
	}
	return segs, spans
}

// PartitionAll partitions every trajectory concurrently (Figure 4 lines
// 1–3 as a parallel phase) and returns one segment slice per input
// trajectory, index-aligned with trs. workers ≤ 0 uses all CPUs; the result
// is bit-identical for every worker count.
func PartitionAll(trs []geom.Trajectory, cfg Config, workers int) [][]geom.Segment {
	out, _, _ := PartitionAllCtx(context.Background(), trs, cfg, workers, nil)
	return out
}

// PartitionAllCtx is PartitionAll with cooperative cancellation and an
// optional completion hook: once ctx is done the fan-out stops handing out
// trajectories and ctx.Err() is returned (the partial output must be
// discarded). onTrajectory, if non-nil, is invoked once per completed
// trajectory — possibly from worker goroutines — so callers can stream
// progress without wrapping the pool themselves. spans[i] holds trajectory
// i's segment spans (nil for an untimed trajectory; see Partitioner).
func PartitionAllCtx(ctx context.Context, trs []geom.Trajectory, cfg Config, workers int, onTrajectory func()) (segs [][]geom.Segment, spans [][]geometry.Interval, err error) {
	segs = make([][]geom.Segment, len(trs))
	spans = make([][]geometry.Interval, len(trs))
	scratch := make([]*Partitioner, par.Workers(workers, len(trs)))
	for w := range scratch {
		scratch[w] = NewPartitioner(cfg)
	}
	err = par.ForEachCtx(ctx, workers, len(trs), func(w, i int) {
		segs[i], spans[i] = scratch[w].Partition(trs[i])
		if onTrajectory != nil {
			onTrajectory()
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return segs, spans, nil
}
