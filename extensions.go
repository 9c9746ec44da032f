package traclus

import (
	"fmt"

	"repro/internal/embed"
	"repro/internal/geometry"
)

// This file exposes the paper's extensions (Section 7.1) through the public
// API beyond what Pipeline.Run already covers (spatiotemporal clustering is
// Run over trajectories that carry Times under SpatiotemporalGeometry): the
// per-cluster time window type, and the constant-shift embedding of the
// non-metric distance (Section 4.2's deferred future work).

// Interval is a closed time interval.
type Interval = geometry.Interval

// Embedding is a constant-shift embedding of a segment set into a metric
// (Euclidean) space: for i ≠ j, the embedded squared distance equals the
// TRACLUS distance plus the constant Shift, preserving every distance
// comparison while restoring the triangle inequality.
type Embedding struct {
	res *embed.Result
}

// Shift is the constant added to every off-diagonal distance.
func (e *Embedding) Shift() float64 { return e.res.Shift }

// Dims is the dimensionality of the embedding.
func (e *Embedding) Dims() int { return e.res.Dims }

// Coord returns the embedded coordinate vector of segment i.
func (e *Embedding) Coord(i int) []float64 { return e.res.Coords[i] }

// Distance2 is the squared Euclidean distance between embedded segments.
func (e *Embedding) Distance2(i, j int) float64 { return e.res.Distance2(i, j) }

// EmbedSegments computes the constant-shift embedding of a segment set
// under the config's distance options (Roth et al., reference [18] of the
// paper). dims ≤ 0 keeps all dimensions (lossless); positive dims truncates
// to the leading ones. O(n³) — intended for moderate segment sets.
func EmbedSegments(segs []Segment, cfg Config, dims int) (*Embedding, error) {
	res, err := embed.EmbedSegments(segs, cfg.core().Distance, dims)
	if err != nil {
		return nil, fmt.Errorf("traclus: %w", err)
	}
	return &Embedding{res: res}, nil
}
