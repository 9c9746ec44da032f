package dendro

// Conversion to and from the persisted form (internal/snapshot format v2).
// Only the item set and the sorted neighbor lists cross the wire; the
// weight prefix sums and the union-find replay log are derived again on
// load. The derivation is exact, not approximate: prefix sums replay the
// identical additions in the identical stored order, and the replay log
// comes from the lists through the same edgesFrom that builds and
// extensions run (edgesFrom(0): every item's share), so a restored
// dendrogram cuts bit-identically to the one that was saved.

import (
	"repro/internal/segclust"
	"repro/internal/snapshot"
)

// Snapshot converts the dendrogram to its persisted form.
func (d *Dendrogram) Snapshot() *snapshot.Dendro {
	n := len(d.items)
	dd := &snapshot.Dendro{
		MaxEps:    d.maxEps,
		Items:     make([]snapshot.DendroItem, n),
		Neighbors: make([][]snapshot.DendroNeighbor, n),
	}
	for i, it := range d.items {
		dd.Items[i] = snapshot.DendroItem{Seg: it.Seg, TrajID: it.TrajID, Weight: it.Weight}
	}
	for i := 0; i < n; i++ {
		lo, hi := d.off[i], d.off[i+1]
		list := make([]snapshot.DendroNeighbor, hi-lo)
		for k := range list {
			list[k] = snapshot.DendroNeighbor{ID: int(d.ids[lo+int64(k)]), Dist: d.dist[lo+int64(k)]}
		}
		dd.Neighbors[i] = list
	}
	return dd
}

// FromSnapshot rebuilds a dendrogram from its persisted form. The input
// must satisfy snapshot validation (Decode guarantees it for anything read
// from the wire); FromSnapshot re-checks it so a hand-constructed Dendro
// cannot smuggle out-of-range ids into the flat arrays.
func FromSnapshot(dd *snapshot.Dendro) (*Dendrogram, error) {
	if dd == nil {
		return nil, &snapshot.InvalidError{Field: "Dendro", Reason: "must be non-nil"}
	}
	if err := dd.Validate(); err != nil {
		return nil, err
	}
	n := len(dd.Items)
	d := &Dendrogram{maxEps: dd.MaxEps, items: make([]segclust.Item, n), off: make([]int64, n+1)}
	for i, it := range dd.Items {
		d.items[i] = segclust.Item{Seg: it.Seg, TrajID: it.TrajID, Weight: it.Weight}
	}
	total := 0
	for _, list := range dd.Neighbors {
		total += len(list)
	}
	d.alloc(total)
	for i, list := range dd.Neighbors {
		o := d.off[i]
		var sum float64
		for _, nb := range list {
			d.ids[o], d.dist[o] = int32(nb.ID), nb.Dist
			sum += d.items[nb.ID].Weight
			d.cum[o] = sum
			o++
		}
		d.off[i+1] = o
	}
	d.edges = d.edgesFrom(0)
	return d, nil
}
