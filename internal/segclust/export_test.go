package segclust

import "context"

// The exports below serve the external test package segclust_test, whose
// tests group from an internal/dendro dendrogram: dendro imports this
// package, so those tests cannot live inside it.

// Hoods runs one neighborhood pass over every item of s at eps, reading the
// pairs from lists when it is non-nil and scoring them otherwise, and
// returns every neighborhood (ascending ids), its weight, and the count of
// candidate pairs the pass charged.
func Hoods(s *SharedIndex, eps float64, workers int, lists NeighborLists) ([][]int32, []float64, int, error) {
	var src sourceFor
	if lists != nil {
		src = fromLists(lists)
	}
	hs, calls, err := s.neighborhoods(context.Background(), eps, workers, src, nil)
	if err != nil {
		return nil, nil, calls, err
	}
	return hs.ids, hs.w, calls, nil
}

var (
	Figure12              = figure12
	FractionalMinLnsItems = fractionalMinLnsItems
	Planar                = planar
	FractionalItems       = fractionalItems
	TimedItems            = timedItems
	WeightedCorridor      = weightedCorridor
	OracleKinds           = oracleKinds
	DiffOracle            = diffOracle
)
