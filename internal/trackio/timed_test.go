package trackio

// Tests for the optional per-point timestamp column: round-trip, the
// malformed-timestamp regression, mixed-row rejection, and unchanged
// LimitError semantics on four-field input.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/geom"
)

func timedSample() []geom.Trajectory {
	return []geom.Trajectory{
		{ID: 1, Weight: 1,
			Points: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0.5)},
			Times:  []float64{0, 10, 20}},
		{ID: 2, Weight: 1,
			Points: []geom.Point{geom.Pt(-3.25, 4), geom.Pt(-2, 4.125)},
			Times:  []float64{100.5, 160.25}},
	}
}

func TestTimedCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, timedSample()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "traj_id,x,y,t\n") {
		t.Fatalf("timed input wrote header %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	got, err := ReadTimedCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := timedSample()
	if len(got) != len(want) {
		t.Fatalf("got %d trajectories, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || len(got[i].Points) != len(want[i].Points) {
			t.Fatalf("trajectory %d: got %+v", i, got[i])
		}
		for j := range want[i].Times {
			if got[i].Times[j] != want[i].Times[j] {
				t.Errorf("trajectory %d time %d: got %v want %v", i, j, got[i].Times[j], want[i].Times[j])
			}
		}
	}
}

// TestTimedCSVMalformedTimestamp is the regression test for the fourth
// column: a non-numeric timestamp must fail with a line-numbered error, not
// parse as zero or silently drop.
func TestTimedCSVMalformedTimestamp(t *testing.T) {
	in := "traj_id,x,y,t\n1,0,0,5\n1,1,0,banana\n"
	_, err := ReadTimedCSV(strings.NewReader(in))
	if err == nil {
		t.Fatal("malformed timestamp accepted")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "bad t") {
		t.Errorf("error %q does not name the line and field", err)
	}
}

func TestTimedCSVMixedRowsRejected(t *testing.T) {
	in := "1,0,0,5\n1,1,0\n"
	if _, err := ReadTimedCSV(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "mixes timed and untimed") {
		t.Errorf("mixed rows in one trajectory accepted: %v", err)
	}
	// A new trajectory may switch column count; only within-trajectory
	// mixing is an error.
	in = "1,0,0,5\n1,1,0,6\n2,0,0\n2,1,1\n"
	if _, err := NewCSVDecoder(strings.NewReader(in)).DecodeAllCSV(); err != nil {
		t.Errorf("per-trajectory column counts rejected: %v", err)
	}
}

func TestNextTimedRequiresTimestamps(t *testing.T) {
	d := NewCSVDecoder(strings.NewReader("1,0,0\n1,1,0\n"))
	if _, err := d.NextTimed(); err == nil || !strings.Contains(err.Error(), "no timestamp column") {
		t.Errorf("untimed input passed timed decode: %v", err)
	}
}

// TestTimedCSVLimits pins that the fourth column does not change limit
// accounting: limits still trip on the same row as for three-field input,
// and surface as *LimitError (the daemon's 413 contract).
func TestTimedCSVLimits(t *testing.T) {
	in := "1,0,0,1\n1,1,0,2\n1,2,0,3\n"
	d := NewCSVDecoder(strings.NewReader(in))
	d.MaxPoints = 2
	var le *LimitError
	if _, err := d.DecodeAllTimedCSV(); !errors.As(err, &le) || le.What != "points" {
		t.Errorf("MaxPoints on timed rows: got %v, want points LimitError", le)
	}

	d = NewCSVDecoder(strings.NewReader("1,0,0,1\n1,1,0,2\n2,0,0,3\n2,1,1,4\n"))
	d.MaxTrajectories = 1
	if _, err := d.DecodeAllTimedCSV(); !errors.As(err, &le) || le.What != "trajectories" {
		t.Errorf("MaxTrajectories on timed rows: got %v, want trajectories LimitError", le)
	}
}

// TestReadCSVDropsTimestamps pins that the spatial reader accepts timed
// input, validating and then discarding the fourth column.
func TestReadCSVDropsTimestamps(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, timedSample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := timedSample()
	if len(got) != len(want) {
		t.Fatalf("got %d trajectories, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i].Points) != len(want[i].Points) || got[i].Times != nil {
			t.Errorf("trajectory %d: %d points and times %v, want %d points and none",
				i, len(got[i].Points), got[i].Times, len(want[i].Points))
		}
	}
}

// TestMergeTimedByID pins MergeByID carrying Times in lockstep with the
// points, through ReadTimedCSV and called directly, and leaving untimed
// trajectories untimed.
func TestMergeTimedByID(t *testing.T) {
	in := "1,0,0,1\n2,5,5,1\n1,1,0,2\n"
	got, err := ReadTimedCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 1 || len(got[0].Points) != 2 || got[0].Times[1] != 2 {
		t.Errorf("interleaved timed merge wrong: %+v", got)
	}
	merged := MergeByID([]geom.Trajectory{
		{ID: 7, Points: []geom.Point{geom.Pt(0, 0)}, Times: []float64{3}},
		{ID: 8, Points: []geom.Point{geom.Pt(9, 9), geom.Pt(9, 8)}},
		{ID: 7, Points: []geom.Point{geom.Pt(1, 0), geom.Pt(2, 0)}, Times: []float64{4, 5}},
	})
	if len(merged) != 2 || len(merged[0].Points) != 3 || len(merged[0].Times) != 3 ||
		merged[0].Times[2] != 5 || merged[1].Times != nil {
		t.Errorf("MergeByID with times: %+v", merged)
	}
}
