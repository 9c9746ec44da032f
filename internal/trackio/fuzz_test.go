package trackio

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets: the parsers must never panic on arbitrary input — they
// either return trajectories or an error. Run with `go test -fuzz
// FuzzReadCSV ./internal/trackio/` for continuous fuzzing; under plain
// `go test` the seed corpus below runs as regression tests.

func FuzzReadCSV(f *testing.F) {
	f.Add("traj_id,x,y\n1,2,3\n")
	f.Add("1,2\n")
	f.Add("")
	f.Add("a,b,c\n1,1e308,1e308\n1,-0,+0\n")
	f.Add("9007199254740993,0.1,0.2\n")
	f.Fuzz(func(t *testing.T, in string) {
		trs, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		// On success every trajectory must be structurally sane enough to
		// re-serialise.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, trs); err != nil {
			t.Fatalf("round-trip write failed: %v", err)
		}
	})
}

func FuzzReadBestTrack(f *testing.F) {
	f.Add("AL011950, STORM0, 1\n19500812, 0000, 1.000, 2.000, 45, 1010\n")
	f.Add("AL011950, STORM0, 9999999\n")
	f.Add("x, y, 0\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		trs, err := ReadBestTrack(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, tr := range trs {
			_ = tr.Points // must be readable without panics
		}
	})
}

func FuzzReadTelemetry(f *testing.F) {
	f.Add("species\tanimal\tseq\tx\ty\nelk\t1\t0\t1.0\t2.0\n")
	f.Add("elk\t-1\t-5\t1.0\t2.0\n")
	f.Add("\t\t\t\t\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		trs, err := ReadTelemetry(strings.NewReader(in), "")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTelemetry(&buf, trs); err != nil {
			t.Fatalf("round-trip write failed: %v", err)
		}
	})
}

// FuzzReadTimedCSV drives the 4-column decode: whatever the input, a
// successful timed read yields trajectories whose Times align with their
// Points, which re-serialise through WriteCSV (the one writer) into bytes
// ReadTimedCSV reads back with the same shape — and the spatial reader must
// accept the original bytes (timestamps parsed, then dropped).
func FuzzReadTimedCSV(f *testing.F) {
	f.Add("traj_id,x,y,t\n1,2,3,4\n")
	f.Add("1,2,3,4\n1,2,3,5\n2,0,0,0\n")
	f.Add("1,2,3\n1,2,3,4\n") // mixed arity: must error, not panic
	f.Add("1,1,1,nan\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		trs, err := ReadTimedCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, tr := range trs {
			if len(tr.Times) != len(tr.Points) {
				t.Fatalf("trajectory %d: %d times for %d points", tr.ID, len(tr.Times), len(tr.Points))
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, trs); err != nil {
			t.Fatalf("round-trip write failed: %v", err)
		}
		back, err := ReadTimedCSV(&buf)
		if err != nil {
			t.Fatalf("re-serialised timed CSV does not read back: %v", err)
		}
		if len(back) != len(trs) {
			t.Fatalf("read back %d trajectories, wrote %d", len(back), len(trs))
		}
		for i, tr := range back {
			if tr.ID != trs[i].ID || len(tr.Points) != len(trs[i].Points) || len(tr.Times) != len(tr.Points) {
				t.Fatalf("trajectory %d read back as id %d with %d points and %d times, wrote id %d with %d",
					i, tr.ID, len(tr.Points), len(tr.Times), trs[i].ID, len(trs[i].Points))
			}
		}
		if _, err := ReadCSV(strings.NewReader(in)); err != nil {
			t.Fatalf("spatial read rejected timed-readable input: %v", err)
		}
	})
}
