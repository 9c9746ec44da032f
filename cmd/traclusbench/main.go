// Command traclusbench is the repository's benchmark: it times the TRACLUS
// library and the traclusd daemon on four workloads, checks that every
// output is correct, and reports end-to-end metrics or, in a separate
// traced run, per-layer metrics. See README.md for the workloads, the
// metrics and how to compare two commits.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash cmd/traclusbench/run.sh [-workload NAME] [-seed N] [-seconds N] [-trace 0|1] [-out FILE]
//
// One workload runs in this process; with no -workload every workload runs,
// each in its own child process. Every metric is printed as
// "workload metric value unit"; the last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}. The exit code is
// 0 when every check passed, 1 when a check failed and 2 when the benchmark
// could not run.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	traclusd string
	tracks   int // > 0 overrides every workload's training-set size
}

// report is everything one workload run produced. The final stdout line
// carries only Correct, Attempted, Failed and Metrics; -out gets all of it.
type report struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   int         `json:"seconds"`
	Traced    bool        `json:"traced"`
	Tracks    int         `json:"tracks"`
	Env       environment `json:"env"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Problems  []string    `json:"problems,omitempty"`
	Metrics   metrics     `json:"metrics"`
	Extras    metrics     `json:"extras,omitempty"`
	Spans     []span      `json:"spans,omitempty"`
	// Fingerprint identifies a library build's clustering (build-* and
	// traced runs); see fingerprint.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// line is the JSON object the last stdout line carries.
type line struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("traclusbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty = all, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", "", "write the full JSON report (with spans) to this file")
	fs.StringVar(&o.traclusd, "traclusd", "", "path of a traclusd binary built from this commit")
	fs.IntVar(&o.tracks, "tracks", 0, "override every workload's training trajectories (smoke runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || (trace != 0 && trace != 1) || o.tracks < 0 {
		fmt.Fprintln(os.Stderr, "traclusbench: want -seconds ≥ 1, -trace 0|1, -tracks ≥ 0 and no positional arguments")
		return 2
	}
	o.trace = trace == 1
	if o.traclusd == "" {
		fmt.Fprintln(os.Stderr, "traclusbench: -traclusd is required (run.sh builds it)")
		return 2
	}

	var reps []report
	if o.workload == "" {
		var err error
		if reps, err = runChildren(ctx, o, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "traclusbench:", err)
			return 2
		}
	} else {
		w, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "traclusbench: unknown workload %q\n", o.workload)
			return 2
		}
		rep, err := runWorkload(ctx, w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "traclusbench: %s: %v\n", w.name, err)
			return 2
		}
		printReport(stdout, rep)
		reps = []report{rep}
	}

	if o.out != "" {
		data, err := json.MarshalIndent(reps, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "traclusbench: writing -out:", err)
			return 2
		}
	}

	final := line{Correct: true, Metrics: metrics{}}
	for _, r := range reps {
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(reps) > 1 {
				k = r.Workload + "." + k
			}
			final.Metrics[k] = v
		}
	}
	data, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "traclusbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(data))
	if !final.Correct {
		return 1
	}
	return 0
}

// sutProcs is the GOMAXPROCS of the code under test: this process for the
// library workloads, the daemon for the serve ones. On the 2-vCPU machine
// the benchmark was sized on, work that kept both vCPUs busy ran up to 2×
// slower from one second to the next, while one busy thread varied by a few
// percent. One CPU keeps the numbers steadier, and on the serve workloads it
// leaves the other CPU to the load generator.
const sutProcs = 1

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, w workload, o options) (report, error) {
	runtime.GOMAXPROCS(sutProcs)
	if o.tracks > 0 {
		w.tracks = o.tracks
	}
	rep := report{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Tracks: w.tracks,
		Env: currentEnvironment(), Metrics: metrics{}, Extras: metrics{},
	}
	var oc outcome
	var err error
	switch {
	case o.trace:
		err = probe(ctx, w, o, &rep, &oc)
	case w.serve && w.mixed:
		err = serveMixed(ctx, w, o, &rep, &oc)
	case w.serve:
		err = serveClassify(ctx, w, o, &rep, &oc)
	default:
		err = buildLoop(ctx, w, o, &rep, &oc)
	}
	if err != nil {
		return rep, err
	}
	rep.Attempted, rep.Failed, rep.Problems = oc.attempted, oc.failed, oc.problems
	rep.Correct = oc.failed == 0 && oc.attempted > 0
	return rep, nil
}

// outcome counts operations attempted and failed; a failed check marks its
// operation failed.
type outcome struct {
	attempted, failed int
	problems          []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, err.Error())
		}
	}
}

// printReport prints every metric as "workload metric value unit", then
// any failures, for people reading the output.
func printReport(w io.Writer, r report) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d traced=%v tracks=%d cpus=%d gomaxprocs=%d go=%s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Tracks, r.Env.CPUs, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	if r.Fingerprint != "" {
		fmt.Fprintf(w, "# %s fingerprint %s\n", r.Workload, r.Fingerprint)
	}
	for _, group := range []metrics{r.Metrics, r.Extras} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, n, strconv.FormatFloat(group[n].Value, 'g', 6, 64), group[n].Unit)
		}
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "# FAIL %s: %s\n", r.Workload, p)
	}
}

// runChildren runs every workload in its own child process, so peak memory
// and garbage-collector state are per workload, and forwards their output.
func runChildren(ctx context.Context, o options, stdout io.Writer) ([]report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	dir, err := os.MkdirTemp("", "traclusbench-reports-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	trace := "0"
	if o.trace {
		trace = "1"
	}
	var reps []report
	for _, w := range workloads {
		file := filepath.Join(dir, w.name+".json")
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", trace,
			"-traclusd", o.traclusd, "-tracks", strconv.Itoa(o.tracks), "-out", file}
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if err != nil && !(errors.As(err, &exitErr) && exitErr.ExitCode() == 1) {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		// Forward the child's human-readable lines; its JSON line is
		// replaced by the combined one.
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			if t := sc.Text(); !strings.HasPrefix(t, "{") {
				fmt.Fprintln(stdout, t)
			}
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		var one []report
		if err := json.Unmarshal(data, &one); err != nil || len(one) != 1 {
			return nil, fmt.Errorf("workload %s: malformed report: %v", w.name, err)
		}
		reps = append(reps, one[0])
	}
	return reps, nil
}
