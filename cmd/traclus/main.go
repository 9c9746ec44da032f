// Command traclus clusters a trajectory file with the TRACLUS algorithm
// and reports the discovered clusters and their representative trajectories
// (the common sub-trajectories).
//
// Usage:
//
//	traclus -in tracks.csv [-format csv|besttrack|telemetry] [-species elk]
//	        [-eps 30] [-minlns 6] [-auto] [-undirected]
//	        [-cost-advantage 0] [-min-seg-len 0] [-workers 0]
//	        [-index grid|rtree|brute]
//	        [-svg out.svg] [-reps reps.csv] [-map] [-progress]
//
// With -auto the ε/MinLns heuristic of the paper's Section 4.4 is applied
// (entropy-minimising ε via simulated annealing, MinLns = avg|Nε|+2) and
// the chosen values are printed before clustering; estimation and grouping
// share one spatial index build. -index selects the ε-neighborhood backend
// (uniform grid, R-tree, or the exhaustive O(n²) scan); every backend
// produces the identical clustering. With -progress the
// pipeline's phase/fraction stream is echoed to stderr. Interrupting the
// process (SIGINT/SIGTERM) cancels the clustering cooperatively — the run
// stops within one work item instead of finishing the batch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/trackio"

	traclus "repro"
)

// errReported marks parse errors the FlagSet already printed to stderr, so
// main exits without printing them a second time.
var errReported = errors.New("flag error already reported")

// options is the parsed command line. parseOptions and run are separated
// from main so tests can drive flag parsing and whole runs in-process.
type options struct {
	in       string
	format   trackio.Format
	species  string
	auto     bool
	svgOut   string
	repsOut  string
	asciiMap bool
	progress bool
	cfg      traclus.Config
}

// parseOptions parses args (without the program name) into options. Flag
// errors and usage output go to stderr. The input format is resolved here:
// detected from the file extension, overridden by -format.
func parseOptions(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("traclus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input trajectory file (required)")
	format := fs.String("format", "", "input format: csv, besttrack, or telemetry (default: by extension)")
	species := fs.String("species", "", "species filter for telemetry input")
	eps := fs.Float64("eps", 30, "ε-neighborhood radius")
	minLns := fs.Float64("minlns", 6, "MinLns density threshold")
	auto := fs.Bool("auto", false, "estimate eps and MinLns with the Section 4.4 heuristic")
	undirected := fs.Bool("undirected", false, "ignore segment direction in the angle distance")
	costAdv := fs.Float64("cost-advantage", 0, "partition suppression constant (Section 4.1.3)")
	minSegLen := fs.Float64("min-seg-len", 0, "drop trajectory partitions shorter than this")
	workers := fs.Int("workers", 0, "parallelism for all pipeline phases (0 = all CPUs, 1 = serial)")
	index := fs.String("index", "grid", "spatial-index backend: grid, rtree, or brute")
	svgOut := fs.String("svg", "", "write an SVG rendering of the clustering here")
	repsOut := fs.String("reps", "", "write representative trajectories as CSV here")
	asciiMap := fs.Bool("map", false, "print an ASCII map of the result")
	progress := fs.Bool("progress", false, "echo pipeline phase/fraction progress to stderr")
	if err := fs.Parse(args); err != nil {
		// fs already reported the problem (and usage) to stderr.
		return nil, errors.Join(errReported, err)
	}
	if *in == "" {
		fs.Usage()
		return nil, fmt.Errorf("-in is required")
	}
	f := trackio.DetectFormat(*in)
	if *format != "" {
		var err error
		if f, err = trackio.ParseFormat(*format); err != nil {
			return nil, err
		}
	}
	backend, err := traclus.ParseIndexBackend(*index)
	if err != nil {
		return nil, err
	}
	opts := &options{
		in:       *in,
		format:   f,
		species:  *species,
		auto:     *auto,
		svgOut:   *svgOut,
		repsOut:  *repsOut,
		asciiMap: *asciiMap,
		progress: *progress,
		cfg: traclus.Config{
			Eps:              *eps,
			MinLns:           *minLns,
			Undirected:       *undirected,
			CostAdvantage:    *costAdv,
			MinSegmentLength: *minSegLen,
			Index:            backend,
			Workers:          *workers,
		},
	}
	if !opts.auto {
		if err := opts.cfg.Validate(); err != nil {
			return nil, err
		}
	}
	return opts, nil
}

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0) // -h is a success, matching the previous ExitOnError behavior
	}
	if err != nil {
		// Usage errors exit 2 (the flag-package convention the previous
		// ExitOnError code followed); runtime failures below exit 1.
		if !errors.Is(err, errReported) {
			fmt.Fprintln(os.Stderr, "traclus:", err)
		}
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes the clustering described by opts, reporting to out. A done
// ctx aborts the pipeline cooperatively and surfaces ctx.Err().
func run(ctx context.Context, opts *options, out io.Writer) error {
	trs, err := trackio.ReadFile(opts.in, opts.format, opts.species)
	if err != nil {
		return err
	}
	if len(trs) == 0 {
		return fmt.Errorf("no trajectories in %s", opts.in)
	}
	fmt.Fprintf(out, "loaded %d trajectories, %d points\n", len(trs), geom.TotalPoints(trs))

	cfg := opts.cfg
	popts := []traclus.Option{traclus.WithConfig(cfg)}
	if opts.auto {
		// One pipeline run estimates ε/MinLns and clusters, sharing a
		// single spatial-index build between the two phases.
		popts = append(popts, traclus.WithEstimation(traclus.DefaultEstimationRange(trs)))
	}
	if opts.progress {
		popts = append(popts, traclus.WithProgress(func(ev traclus.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "traclus: %-9s %3.0f%% (%d/%d)\n",
				ev.Phase, ev.Fraction*100, ev.Done, ev.Total)
		}))
	}
	res, err := traclus.New(popts...).Run(ctx, trs)
	if err != nil {
		return err
	}
	if est := res.Estimated; est != nil {
		fmt.Fprintf(out, "heuristic: eps=%.2f (entropy %.4f, avg|Neps|=%.2f), MinLns=%.0f (range %d..%d)\n",
			est.Eps, est.Entropy, est.AvgNeighbors, float64(est.MinLnsLo+est.MinLnsHi)/2, est.MinLnsLo, est.MinLnsHi)
	}
	fmt.Fprintf(out, "clusters=%d segments=%d noise=%d removed=%d\n",
		len(res.Clusters), res.TotalSegments, res.NoiseSegments, res.RemovedClusters)
	var reps [][]traclus.Point
	for i, c := range res.Clusters {
		fmt.Fprintf(out, "cluster %d: %d segments from %d trajectories, representative has %d points\n",
			i, len(c.Segments), len(c.Trajectories), len(c.Representative))
		reps = append(reps, c.Representative)
	}

	if opts.asciiMap {
		fmt.Fprintln(out, render.ClusterMap(110, 34, trs, reps))
	}
	if opts.svgOut != "" {
		if err := os.WriteFile(opts.svgOut, []byte(render.ClusterSVG(trs, reps)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", opts.svgOut)
	}
	if opts.repsOut != "" {
		var repTrs []geom.Trajectory
		for i, rep := range reps {
			repTrs = append(repTrs, geom.Trajectory{ID: i, Weight: 1, Points: rep})
		}
		f, err := os.Create(opts.repsOut)
		if err != nil {
			return err
		}
		if err := trackio.WriteCSV(f, repTrs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", opts.repsOut)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traclus:", err)
	os.Exit(1)
}
