package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; add keeps call sites short.
type metrics map[string]metric

func (m metrics) add(name string, value float64, unit string) { m[name] = metric{value, unit} }

// median of xs (unsorted); 0 for no values.
func median(xs []float64) float64 {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return ys[n/2]
	default:
		return (ys[n/2-1] + ys[n/2]) / 2
	}
}

// samples collects durations and summarises them in seconds.
type samples []time.Duration

func (s samples) seconds() []float64 {
	xs := make([]float64, len(s))
	for i, d := range s {
		xs[i] = d.Seconds()
	}
	return xs
}

func (s samples) median() float64 { return median(s.seconds()) }

// percentile by nearest rank; 0 for no samples.
func (s samples) percentile(p float64) float64 {
	xs := s.seconds()
	slices.Sort(xs)
	if len(xs) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

// rssSampler records the peak resident set size (VmHWM) of one process
// over each measured operation or interval. peak_rss_mb is the median of
// those peaks: a single lifetime peak depends on when the garbage
// collector happened to run and varies far more from run to run.
type rssSampler struct {
	pid      int
	peaks    []float64
	windowed bool // every reset of the peak succeeded
}

func newRSSSampler(pid int) *rssSampler { return &rssSampler{pid: pid, windowed: true} }

// start resets the process's peak. Where the kernel refuses, the peak
// stays the lifetime one, and the report says so.
func (s *rssSampler) start() {
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", s.pid), []byte("5"), 0); err != nil {
		s.windowed = false
	}
}

// stop records the peak since start.
func (s *rssSampler) stop() error {
	mb, err := peakRSSMB(s.pid)
	s.peaks = append(s.peaks, mb)
	return err
}

func (s *rssSampler) report(rep *report) {
	rep.Metrics.add("peak_rss_mb", median(s.peaks), "MB")
	windowed := 0.0
	if s.windowed {
		windowed = 1
	}
	rep.Extras.add("peak_rss_windowed", windowed, "count")
}

// peakRSSMB reads the peak resident set size (VmHWM) of process pid, in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// environment is recorded with every run, so numbers are never read
// without the machine and code that produced them.
type environment struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && env.Commit != "unknown" {
			env.Commit += "+dirty"
		}
	}
	return env
}
