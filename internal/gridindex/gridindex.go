// Package gridindex provides a uniform-grid spatial index over line
// segments. It answers the same conservative candidate queries as the
// R-tree (see internal/rtree) and exists both as the fast default for the
// clustering hot path and as an independent cross-check of the R-tree in
// tests: both must refine to identical ε-neighborhoods.
package gridindex

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// Index buckets segment ids by the grid cells their MBRs overlap. The
// buckets are stored CSR-style — one flat id arena plus per-cell offsets —
// instead of a slice-of-slices: two exact-size allocations for the whole
// grid (no per-bucket headers, no append-doubling slack) and cell scans
// stream through contiguous memory.
type Index struct {
	cell    float64
	reqCell float64 // the cell size Build was asked for (0 = heuristic)
	minX    float64
	minY    float64
	nx, ny  int
	cellOff []int32 // cell c's ids live at cellIDs[cellOff[c]:cellOff[c+1]]
	cellIDs []int32
	// rects precomputes every segment MBR for candidate refinement. The
	// copy is deliberate: refinement runs once per (query, candidate) — tens
	// of millions of times per clustering pass — and deriving the MBR there
	// instead measured ~13% slower end-to-end, so this is 32 bytes per
	// segment well spent.
	segs  []geom.Segment
	rects []geom.Rect
	// over holds the ids appended by Insert, bucketed per cell alongside
	// the immutable CSR arena (rebuilding the CSR per append would be a
	// fresh index build in all but name). Grids can reach ~16M cells, so the
	// overlay is a map keyed by the handful of cells appends actually touch,
	// not a dense per-cell slice. Per-cell order is ascending insertion id,
	// matching the CSR's ascending-id invariant.
	over map[int][]int32
}

// cellSpan returns the ids bucketed in cell c.
func (x *Index) cellSpan(c int) []int32 {
	return x.cellIDs[x.cellOff[c]:x.cellOff[c+1]]
}

// Build indexes the given segments with the given cell size. A non-positive
// (or NaN/Inf) cell size picks a heuristic: the average segment MBR
// diagonal (clamped to the data extent), which keeps bucket occupancy
// near-constant for TRACLUS-style inputs. Degenerate inputs are safe: with
// all-zero-length segments (point "segments", diagonal sum 0) or a
// single-point extent the heuristic falls back to a unit cell, and the
// bucket count is always capped at O(len(segs)) so a handful of points
// spread over a huge extent cannot allocate millions of empty cells.
func Build(segs []geom.Segment, cellSize float64) *Index {
	idx := &Index{cell: cellSize, reqCell: cellSize}
	if len(segs) == 0 {
		idx.cell = 1
		return idx
	}
	bounds := segs[0].Bounds()
	var diagSum float64
	idx.segs = segs
	idx.rects = make([]geom.Rect, len(segs))
	for i, s := range segs {
		r := s.Bounds()
		idx.rects[i] = r
		bounds = bounds.Union(r)
		diagSum += math.Hypot(r.Width(), r.Height())
	}
	maxDim := math.Max(bounds.Width(), bounds.Height())
	// !(cell > 0) rather than cell <= 0: NaN compares false against every
	// threshold, so an untyped <= would let a NaN request poison nx/ny.
	if !(idx.cell > 0) || math.IsInf(idx.cell, 0) {
		idx.cell = diagSum / float64(len(segs))
		if !(idx.cell > 0) || math.IsInf(idx.cell, 0) {
			idx.cell = 1 // all segments zero-length (diagSum 0) or non-finite
		}
		// Cap the heuristic at ~max(256, 4n) buckets. Candidate sets are
		// exact regardless of cell size (ids are refined against the query
		// rectangle), so this affects only constant factors — and it is
		// what keeps a handful of zero-length segments spread over a large
		// extent (diagSum 0 → unit cell) from sizing nx*ny by extent alone.
		maxCells := float64(4*len(segs) + 256)
		if maxCells > 1<<24 {
			maxCells = 1 << 24
		}
		if side := math.Sqrt(maxCells); maxDim > 0 && idx.cell < maxDim/side {
			idx.cell = maxDim / side
		}
	}
	if maxDim > 0 && idx.cell < maxDim/4096 {
		idx.cell = maxDim / 4096 // cap any grid at ~16M cells
	}
	idx.minX, idx.minY = bounds.Min.X, bounds.Min.Y
	// A non-finite extent (a NaN or infinite coordinate) has no cell count;
	// such an axis gets one cell, which cellRange clamps every rectangle to.
	idx.nx = max(int(bounds.Width()/idx.cell)+1, 1)
	idx.ny = max(int(bounds.Height()/idx.cell)+1, 1)
	// CSR build: count pass, prefix sum, fill pass. The fill uses the
	// offsets themselves as write cursors and restores them with one
	// overlapping copy (after filling, cellOff[c] is cell c's end, which is
	// exactly cell c+1's start). Per-cell id order is ascending segment id,
	// the same order appending produced.
	nc := idx.nx * idx.ny
	idx.cellOff = make([]int32, nc+1)
	for _, s := range segs {
		idx.eachCell(s.Bounds(), func(c int) { idx.cellOff[c+1]++ })
	}
	for c := 0; c < nc; c++ {
		idx.cellOff[c+1] += idx.cellOff[c]
	}
	idx.cellIDs = make([]int32, idx.cellOff[nc])
	for i, s := range segs {
		idx.eachCell(s.Bounds(), func(c int) {
			idx.cellIDs[idx.cellOff[c]] = int32(i)
			idx.cellOff[c]++
		})
	}
	copy(idx.cellOff[1:], idx.cellOff[:nc])
	idx.cellOff[0] = 0
	return idx
}

// Len returns the number of indexed segments.
func (x *Index) Len() int { return len(x.segs) }

// Insert adds segments to an existing index without rebuilding the CSR
// arena. Appended ids land in per-cell overlay buckets that CandidatesOutside scans
// after the arena span of each touched cell.
//
// The grid's extent is frozen at Build time, so an appended segment may fall
// outside it. That is safe: cellRange clamps both the bucketing walk here and
// the query walk in CandidatesOutside to the same [0,nx)×[0,ny) box, and clamping is
// monotone — if an appended MBR lies within distance d of a query rectangle,
// their unclamped cell intervals overlap on both axes, and clamping two
// overlapping intervals to one common range keeps them overlapping. Every
// in-range candidate is therefore still enumerated (conservative-candidate
// contract), only with out-of-extent ids piling into edge cells (a constant-
// factor cost that the next full rebuild amortizes away).
//
// The one geometry Build never chose is the empty one (no segments → 1×0
// grid with no extent at all); the first Insert into an empty index rebuilds
// in place with the originally requested cell size instead. Insert is not
// safe for concurrent use with queries.
func (x *Index) Insert(segs []geom.Segment) {
	if len(segs) == 0 {
		return
	}
	if len(x.segs) == 0 {
		*x = *Build(append([]geom.Segment(nil), segs...), x.reqCell)
		return
	}
	if x.over == nil {
		x.over = make(map[int][]int32)
	}
	base := len(x.segs)
	x.segs = append(x.segs, segs...)
	for k, s := range segs {
		r := s.Bounds()
		x.rects = append(x.rects, r)
		id := int32(base + k)
		x.eachCell(r, func(c int) { x.over[c] = append(x.over[c], id) })
	}
}

// CellSize returns the cell size in effect.
func (x *Index) CellSize() float64 { return x.cell }

// cellRange returns the box of cells r overlaps, every bound clamped into
// the grid: a rectangle beyond the extent on any side — an appended
// segment, or a query grown past the extent, to +Inf included — maps to
// the edge cells. Clamping is monotone, so rectangles whose unclamped cell
// intervals overlap still overlap after it (see Insert).
func (x *Index) cellRange(r geom.Rect) (i0, i1, j0, j1 int) {
	return x.cellOf(r.Min.X-x.minX, x.nx), x.cellOf(r.Max.X-x.minX, x.nx),
		x.cellOf(r.Min.Y-x.minY, x.ny), x.cellOf(r.Max.Y-x.minY, x.ny)
}

// cellOf returns the cell of offset v on an axis of n cells, clamped into
// [0, n). It clamps before it converts: converting a float outside the int
// range, or NaN, is implementation-defined.
func (x *Index) cellOf(v float64, n int) int {
	c := v / x.cell
	switch {
	case !(c > 0): // negative, zero or NaN
		return 0
	case c >= float64(n-1):
		return n - 1
	}
	return int(c)
}

func (x *Index) eachCell(r geom.Rect, fn func(c int)) {
	i0, i1, j0, j1 := x.cellRange(r)
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			fn(j*x.nx + i)
		}
	}
}

// CandidatesOutside appends to dst the ids outside the window [lo, hi) of
// every segment whose MBR lies within Euclidean distance d of the rectangle
// q, and never visits a window id; the empty window (lo ≥ hi) returns every
// such id. Ids may repeat across cells; the seen scratch (len = number of
// segments, zeroed marks) deduplicates. Pass a reusable seen slice to avoid
// allocation; nil allocates one. Every CSR span and overlay bucket is in
// ascending id order, so the window is one contiguous run of each, cut out
// after two binary searches.
func (x *Index) CandidatesOutside(q geom.Rect, d float64, lo, hi int, dst []int, seen []bool) []int {
	if len(x.segs) == 0 {
		return dst
	}
	if seen == nil {
		seen = make([]bool, len(x.segs))
	}
	i0, i1, j0, j1 := x.cellRange(q.Expand(d))
	// Each bucket is visited as two runs, the one before the window and
	// then the one after it.
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			c := j*x.nx + i
			for run, rest := runs(x.cellSpan(c), lo, hi); ; run, rest = rest, nil {
				for _, id := range run {
					if seen[id] {
						continue
					}
					seen[id] = true
					if x.rects[id].WithinDist(q, d) {
						dst = append(dst, int(id))
					}
				}
				if len(rest) == 0 {
					break
				}
			}
			if x.over == nil {
				continue
			}
			for run, rest := runs(x.over[c], lo, hi); ; run, rest = rest, nil {
				for _, id := range run {
					if seen[id] {
						continue
					}
					seen[id] = true
					if x.rects[id].WithinDist(q, d) {
						dst = append(dst, int(id))
					}
				}
				if len(rest) == 0 {
					break
				}
			}
		}
	}
	// Clear the marks by re-walking the touched cells so the scratch can be
	// reused by the next query (a window id was never marked, so clearing it
	// too is harmless).
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			c := j*x.nx + i
			for _, id := range x.cellSpan(c) {
				seen[id] = false
			}
			if x.over == nil {
				continue
			}
			for _, id := range x.over[c] {
				seen[id] = false
			}
		}
	}
	return dst
}

// runs returns the ids of an ascending bucket before and after the window
// [lo, hi). An empty window (lo ≥ hi) leaves the bucket whole in before, at
// the cost of one comparison: runs inlines, and split runs only for a
// non-empty window.
func runs(ids []int32, lo, hi int) (before, after []int32) {
	if lo >= hi {
		return ids, nil
	}
	return split(ids, lo, hi)
}

// split cuts the run [lo, hi) out of the ascending ids.
func split(ids []int32, lo, hi int) (before, after []int32) {
	a, _ := slices.BinarySearch(ids, int32(lo))
	b, _ := slices.BinarySearch(ids[a:], int32(hi))
	return ids[:a], ids[a+b:]
}
