package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/trackio"

	traclus "repro"
)

func TestParseOptionsDefaults(t *testing.T) {
	opts, err := parseOptions([]string{"-in", "tracks.csv"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if opts.in != "tracks.csv" || opts.format != trackio.FormatCSV {
		t.Errorf("in=%q format=%q", opts.in, opts.format)
	}
	if opts.cfg.Eps != 30 || opts.cfg.MinLns != 6 || opts.cfg.Workers != 0 {
		t.Errorf("default cfg = %+v", opts.cfg)
	}
	if opts.auto || opts.asciiMap || opts.svgOut != "" || opts.repsOut != "" {
		t.Errorf("default outputs = %+v", opts)
	}
}

func TestParseOptionsFormatDetectionAndOverride(t *testing.T) {
	opts, err := parseOptions([]string{"-in", "storms.bt"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if opts.format != trackio.FormatBestTrack {
		t.Errorf("detected format = %q, want besttrack", opts.format)
	}
	opts, err = parseOptions([]string{"-in", "storms.bt", "-format", "telemetry", "-species", "elk"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if opts.format != trackio.FormatTelemetry || opts.species != "elk" {
		t.Errorf("override format=%q species=%q", opts.format, opts.species)
	}
}

func TestParseOptionsErrors(t *testing.T) {
	cases := [][]string{
		{},                                     // -in missing
		{"-in", "x.csv", "-format", "bad"},     // unknown format
		{"-in", "x.csv", "-eps", "notnum"},     // unparsable flag
		{"-in", "x.csv", "-eps", "NaN"},        // NaN rejected by typed validation
		{"-in", "x.csv", "-minlns", "-2"},      // negative MinLns
		{"-in", "x.csv", "-unknown-flag"},      // undefined flag
		{"-in", "x.csv", "-min-seg-len", "-1"}, // negative length
	}
	for i, args := range cases {
		var stderr bytes.Buffer
		if _, err := parseOptions(args, &stderr); err == nil {
			t.Errorf("case %d (%v): accepted", i, args)
		}
	}
}

func TestParseOptionsAutoSkipsEpsValidation(t *testing.T) {
	// With -auto, eps/minlns are estimated later; the placeholder values
	// must not be validated at parse time.
	if _, err := parseOptions([]string{"-in", "x.csv", "-auto", "-eps", "0"}, &bytes.Buffer{}); err != nil {
		t.Fatalf("-auto with eps=0 rejected: %v", err)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "tracks.csv")
	trs := synth.CorridorScene(2, 10, 24, 4, 11)
	if err := trackio.WriteFile(in, trackio.FormatCSV, trs); err != nil {
		t.Fatal(err)
	}
	repsOut := filepath.Join(dir, "reps.csv")
	opts, err := parseOptions([]string{
		"-in", in, "-eps", "30", "-minlns", "6",
		"-cost-advantage", "15", "-min-seg-len", "40",
		"-reps", repsOut,
	}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), opts, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "clusters=2") {
		t.Errorf("output missing clusters=2:\n%s", out.String())
	}
	reps, err := trackio.ReadFile(repsOut, trackio.FormatCSV, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Errorf("wrote %d representatives, want 2", len(reps))
	}
}

func TestRunMissingFile(t *testing.T) {
	opts, err := parseOptions([]string{"-in", filepath.Join(t.TempDir(), "nope.csv")}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), opts, &bytes.Buffer{}); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}

func TestParseOptionsIndexFlag(t *testing.T) {
	for name, want := range map[string]traclus.IndexBackend{
		"grid": traclus.GridIndexBackend(), "rtree": traclus.RTreeIndexBackend(), "brute": traclus.BruteIndexBackend(),
	} {
		opts, err := parseOptions([]string{"-in", "x.csv", "-index", name}, &bytes.Buffer{})
		if err != nil {
			t.Fatalf("-index %s: %v", name, err)
		}
		if opts.cfg.Index != want {
			t.Errorf("-index %s parsed as %v, want %s", name, opts.cfg.Index, want.Name())
		}
	}
	if _, err := parseOptions([]string{"-in", "x.csv", "-index", "kdtree"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown -index name accepted")
	}
}

// TestRunAutoSharedEstimation drives -auto end-to-end: the heuristic line
// reports the estimate chosen by the run itself (estimation and grouping
// share one index build) before the cluster summary.
func TestRunAutoSharedEstimation(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "tracks.csv")
	if err := trackio.WriteFile(in, trackio.FormatCSV, synth.CorridorScene(2, 10, 24, 4, 11)); err != nil {
		t.Fatal(err)
	}
	opts, err := parseOptions([]string{
		"-in", in, "-auto", "-cost-advantage", "15", "-min-seg-len", "40", "-index", "rtree",
	}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), opts, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	hi := strings.Index(text, "heuristic: eps=")
	ci := strings.Index(text, "clusters=")
	if hi < 0 || ci < 0 || hi > ci {
		t.Errorf("expected heuristic line before cluster summary:\n%s", text)
	}
}
