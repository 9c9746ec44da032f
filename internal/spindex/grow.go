package spindex

// Incremental growth of a Searcher. The append path never builds a second
// index for a dataset it already indexed — it grows the one Searcher the
// model was built with, preserving both halves of the single-build
// discipline: builds counts stay flat (tests pin zero new builds per append)
// and every phase keeps querying one coherent index.
//
// Growth is not a concurrent operation. The owner (the model's appender)
// must serialise Grow against every query on the same Searcher; cursors
// created before a Grow remain usable afterwards (they resize their own
// scratch lazily), but not DURING one. Published query results computed
// before a Grow stay valid because ids are append-only.

import (
	"repro/internal/geom"
	"repro/internal/segpool"
)

// Grow appends segs to the Searcher: the columnar pool grows (amortized
// doubling, no new pool build), the backend index absorbs the new ids in
// place, and the growth registers in the package Grows counter — never in
// Builds. The appended segments get ids Len()..Len()+len(segs)-1, exactly
// the ids NewSearcher would have assigned them on the concatenated set.
//
// A non-finite coordinate in segs drops the whole Searcher to the scalar
// distance path (Batched() becomes false), which is bit-identical to what
// NewSearcher over the concatenated set would have done; the query answers
// do not change, only their speed.
func (s *Searcher) Grow(segs []geom.Segment) {
	if len(segs) == 0 {
		return
	}
	if s.pool != nil {
		np, err := segpool.Grow(s.pool, segs)
		if err != nil {
			// Fall off the kernel path for good: materialise the query
			// rectangles the pool used to cover, then drop pool and kernel.
			if !s.brute {
				s.rects = make([]geom.Rect, len(s.segs), len(s.segs)+len(segs))
				for i, sg := range s.segs {
					s.rects[i] = sg.Bounds()
				}
			}
			s.pool, s.kernel = nil, nil
		} else {
			s.pool = np
		}
	}
	s.segs = append(s.segs, segs...)
	if s.pool == nil && !s.brute {
		for _, sg := range segs {
			s.rects = append(s.rects, sg.Bounds())
		}
	}
	s.index.insert(segs)
	grows.Add(1)
}
