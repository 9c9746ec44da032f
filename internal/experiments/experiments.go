// Package experiments regenerates every figure and table-like result of the
// TRACLUS paper's evaluation (Section 5) plus the appendix examples, using
// the synthetic stand-in data sets documented in DESIGN.md §2. Each
// function returns a Report with the same series/rows the paper presents
// and, where the paper shows a picture, an SVG rendering.
//
// The experiments are deterministic: all data generators and searches are
// seeded.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dendro"
	"repro/internal/geom"
	"repro/internal/lsdist"
	"repro/internal/mdl"
	"repro/internal/params"
	"repro/internal/quality"
	"repro/internal/segclust"
	"repro/internal/spindex"
	"repro/internal/synth"
)

// Size selects the data scale. Full matches the paper's data set sizes
// where feasible; Small is sized for unit tests and benchmarks.
type Size int

const (
	// Small runs in well under a second per experiment.
	Small Size = iota
	// Full approximates the paper's data scale.
	Full
)

// Report is the renderable outcome of one experiment.
type Report struct {
	ID    string
	Title string
	// Lines are the text rows (the "table" form of the figure).
	Lines []string
	// SVGs maps file names to SVG documents.
	SVGs map[string]string
	// Values exposes headline numbers for tests and EXPERIMENTS.md
	// (e.g. "clusters" → 7).
	Values map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, SVGs: map[string]string{}, Values: map[string]float64{}}
}

func (r *Report) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// ---- Shared data sets (cached per size) ----

type dataCache struct {
	once sync.Once
	trs  []geom.Trajectory
}

var hurricaneCache, elkCache, deerCache [2]dataCache

// HurricaneData returns the hurricane-like data set.
func HurricaneData(sz Size) []geom.Trajectory {
	c := &hurricaneCache[sz]
	c.once.Do(func() {
		cfg := synth.DefaultHurricaneConfig()
		if sz == Small {
			cfg.NumTracks = 120
		}
		c.trs = synth.Hurricanes(cfg)
	})
	return c.trs
}

// ElkData returns the Elk1993-like data set.
func ElkData(sz Size) []geom.Trajectory {
	c := &elkCache[sz]
	c.once.Do(func() {
		cfg := synth.ElkConfig()
		if sz == Small {
			cfg.PointsPer = 260
		} else {
			cfg.PointsPer = 900 // full-scale partition counts without an hours-long QMeasure
		}
		c.trs = synth.AnimalMovements(cfg)
	})
	return c.trs
}

// DeerData returns the Deer1995-like data set.
func DeerData(sz Size) []geom.Trajectory {
	c := &deerCache[sz]
	c.once.Do(func() {
		cfg := synth.DeerConfig()
		if sz == Small {
			cfg.PointsPer = 220
		}
		c.trs = synth.AnimalMovements(cfg)
	})
	return c.trs
}

// partitionCostAdvantage is the Section 4.1.3 partition-suppression
// constant used throughout the experiments. The synthetic trajectories
// carry per-fix jitter, so without suppression the MDL test partitions at
// noise wiggles, producing the short segments whose over-clustering
// Figure 11 warns about; 15 lengthens partitions to clean legs (2–3 per
// track) on this data.
const partitionCostAdvantage = 15

// partitionMinLength drops trajectory partitions shorter than this. Short
// segments have low directional strength and "might induce over-clustering"
// (Section 4.1.3, Figure 11); on the jittery synthetic telemetry they would
// glue every corridor into one density-connected set.
const partitionMinLength = 40

// partitionItems runs phase one with the recommended partition-suppression
// constant and returns the pooled segments.
func partitionItems(trs []geom.Trajectory) []segclust.Item {
	cfg := core.DefaultConfig()
	cfg.Partition = mdl.Config{CostAdvantage: partitionCostAdvantage, MinLength: partitionMinLength}
	return core.PartitionAll(trs, cfg)
}

// runTraclus executes grouping+representatives on pre-partitioned items.
func runTraclus(items []segclust.Item, eps, minLns float64) (*core.Output, error) {
	cfg := core.DefaultConfig()
	cfg.Eps, cfg.MinLns = eps, minLns
	res, err := segclust.Run(items, cfg.Segclust())
	if err != nil {
		return nil, err
	}
	return core.AssembleCtx(context.Background(), items, res, cfg, nil, nil)
}

// qmeasure computes Formula 11 for a clustering outcome.
func qmeasure(items []segclust.Item, out *core.Output) float64 {
	return quality.Measure(items, out.Result, lsdist.DefaultOptions(), 0).QMeasure()
}

// epsRange returns [lo..hi] stepping by step.
func epsRange(lo, hi, step float64) []float64 {
	var out []float64
	for e := lo; e <= hi+1e-9; e += step {
		out = append(out, e)
	}
	return out
}

// entropyCurve evaluates the Section 4.4 entropy at each ε, every point cut
// from one dendrogram built at the largest.
func entropyCurve(items []segclust.Item, epsValues []float64) ([]params.EntropyPoint, error) {
	shared := segclust.NewSharedIndexFor(items, lsdist.DefaultOptions(), spindex.Grid())
	d, err := dendro.FromShared(context.Background(), shared, slices.Max(epsValues), 0)
	if err != nil {
		return nil, err
	}
	return params.SweepDendro(d, epsValues)
}

// Entry is one registered experiment.
type Entry struct {
	ID  string
	Run func(Size) *Report
}

// Registry returns every experiment in presentation order — the single
// source of truth for cmd/experiments and the coverage tests.
func Registry() []Entry {
	return []Entry{
		{"fig1", Fig1},
		{"fig16", Fig16},
		{"fig17", Fig17},
		{"fig18", Fig18},
		{"fig19", Fig19},
		{"fig20", Fig20},
		{"fig21", Fig21},
		{"fig22", Fig22},
		{"fig23", Fig23},
		{"sec33", Sec33},
		{"sec54", Sec54},
		{"appendixA", AppendixA},
		{"appendixB", AppendixB},
		{"appendixC", AppendixC},
		{"appendixD", AppendixD},
		{"extensions", Extensions},
		{"ablationDist", DistanceAblation},
		{"ablationPart", PartitionAblation},
	}
}
