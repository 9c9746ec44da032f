// Package trackio reads and writes the trajectory data formats used by the
// experiments:
//
//   - Best Track: a simplified HURDAT-style storm format (header line per
//     storm followed by 6-hourly fixes) mirroring the hurricane data set
//     the paper uses (http://weather.unisys.com/hurricane/atlantic/).
//   - Telemetry: a Starkey-project-style TSV of radio-telemetry fixes
//     (species, animal id, sequence number, x, y).
//   - CSV: a minimal trajectory interchange format (traj_id,x,y), with an
//     optional fourth per-point timestamp column (traj_id,x,y,t) for
//     spatiotemporal runs.
//
// The synthetic generators in internal/synth write through these formats
// and the loaders read them back, so the repository exercises the same
// parse-then-cluster pipeline as the paper's tooling.
package trackio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// WriteBestTrack serialises trajectories in the simplified Best Track
// format:
//
//	AL011950, STORM0, 21
//	19500812, 0000, 28.000, 94.800, 45, 1010
//	...
//
// Each storm has a header "basinID, name, fixCount" followed by fixCount
// fix lines "date, time, y, x, wind, pressure". Wind and pressure are
// synthesised placeholders (the paper extracts only latitude/longitude).
func WriteBestTrack(w io.Writer, trs []geom.Trajectory) error {
	bw := bufio.NewWriter(w)
	for i, tr := range trs {
		year := 1950 + i%55 // spread storms over 1950–2004 like the paper
		if _, err := fmt.Fprintf(bw, "AL%02d%04d, STORM%d, %d\n", i%30+1, year, tr.ID, len(tr.Points)); err != nil {
			return err
		}
		for j, p := range tr.Points {
			day := 1 + (j/4)%28
			hour := (j % 4) * 600
			if _, err := fmt.Fprintf(bw, "%04d%02d%02d, %04d, %.3f, %.3f, %d, %d\n",
				year, 8+(j/112)%2, day, hour, p.Y, p.X, 30+j%90, 1015-j%40); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBestTrack parses the simplified Best Track format, extracting the
// (x, y) positions exactly as the paper extracts latitude/longitude.
func ReadBestTrack(r io.Reader) ([]geom.Trajectory, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var trs []geom.Trajectory
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := splitCSV(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trackio: line %d: expected storm header with 3 fields, got %d", line, len(fields))
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil || count < 0 {
			return nil, fmt.Errorf("trackio: line %d: bad fix count %q", line, fields[2])
		}
		name := fields[1]
		tr := geom.Trajectory{ID: len(trs), Label: name, Weight: 1}
		for f := 0; f < count; f++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("trackio: storm %q truncated at fix %d/%d", name, f, count)
			}
			line++
			fix := splitCSV(sc.Text())
			if len(fix) != 6 {
				return nil, fmt.Errorf("trackio: line %d: expected 6 fix fields, got %d", line, len(fix))
			}
			y, err := strconv.ParseFloat(fix[2], 64)
			if err != nil {
				return nil, fmt.Errorf("trackio: line %d: bad latitude %q", line, fix[2])
			}
			x, err := strconv.ParseFloat(fix[3], 64)
			if err != nil {
				return nil, fmt.Errorf("trackio: line %d: bad longitude %q", line, fix[3])
			}
			tr.Points = append(tr.Points, geom.Pt(x, y))
		}
		trs = append(trs, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trackio: %w", err)
	}
	return trs, nil
}

// WriteTelemetry serialises trajectories as Starkey-style TSV with the
// header "species\tanimal\tseq\tx\ty".
func WriteTelemetry(w io.Writer, trs []geom.Trajectory) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "species\tanimal\tseq\tx\ty"); err != nil {
		return err
	}
	for _, tr := range trs {
		species := tr.Label
		if species == "" {
			species = "unknown"
		}
		for j, p := range tr.Points {
			if _, err := fmt.Fprintf(bw, "%s\t%d\t%d\t%.3f\t%.3f\n", species, tr.ID, j, p.X, p.Y); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTelemetry parses Starkey-style TSV. species filters rows when
// non-empty (the paper uses elk 1993 and deer 1995 subsets). Rows may be in
// any order; fixes are sorted by sequence number per animal.
func ReadTelemetry(r io.Reader, species string) ([]geom.Trajectory, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	type fix struct {
		seq int
		p   geom.Point
	}
	byAnimal := map[int][]fix{}
	labels := map[int]string{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || (line == 1 && strings.HasPrefix(text, "species")) {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("trackio: line %d: expected 5 TSV fields, got %d", line, len(f))
		}
		if species != "" && f[0] != species {
			continue
		}
		animal, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("trackio: line %d: bad animal id %q", line, f[1])
		}
		seq, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("trackio: line %d: bad seq %q", line, f[2])
		}
		x, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trackio: line %d: bad x %q", line, f[3])
		}
		y, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trackio: line %d: bad y %q", line, f[4])
		}
		byAnimal[animal] = append(byAnimal[animal], fix{seq, geom.Pt(x, y)})
		labels[animal] = f[0]
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trackio: %w", err)
	}
	ids := make([]int, 0, len(byAnimal))
	for id := range byAnimal {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	trs := make([]geom.Trajectory, 0, len(ids))
	for _, id := range ids {
		fixes := byAnimal[id]
		sort.Slice(fixes, func(i, j int) bool { return fixes[i].seq < fixes[j].seq })
		tr := geom.Trajectory{ID: id, Label: labels[id], Weight: 1}
		for _, fx := range fixes {
			tr.Points = append(tr.Points, fx.p)
		}
		trs = append(trs, tr)
	}
	return trs, nil
}

// WriteCSV serialises trajectories as "traj_id,x,y" rows with a header. A
// trajectory that carries Times writes the fourth column of
// "traj_id,x,y,t" rows, and the header then names it; untimed input writes
// exactly the three-column form.
func WriteCSV(w io.Writer, trs []geom.Trajectory) error {
	bw := bufio.NewWriter(w)
	header := "traj_id,x,y"
	for _, tr := range trs {
		if tr.Times != nil {
			header = "traj_id,x,y,t"
			break
		}
	}
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return err
	}
	for _, tr := range trs {
		for i, p := range tr.Points {
			var err error
			if tr.Times != nil {
				_, err = fmt.Fprintf(bw, "%d,%.6f,%.6f,%.3f\n", tr.ID, p.X, p.Y, tr.Times[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d,%.6f,%.6f\n", tr.ID, p.X, p.Y)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses "traj_id,x,y" rows (header optional). Points are grouped
// by id in first-appearance order within each trajectory. It is the
// whole-input form of the streaming CSVDecoder — one parser serves both
// paths, so their row handling can never diverge. Rows carrying the
// timestamp column parse too; the timestamps are dropped.
func ReadCSV(r io.Reader) ([]geom.Trajectory, error) {
	trs, err := NewCSVDecoder(r).DecodeAllCSV()
	if err != nil {
		return nil, err
	}
	return MergeByID(trs), nil
}

// ReadTimedCSV parses "traj_id,x,y,t" rows (header optional) into
// trajectories carrying Times — ReadCSV with the per-point timestamp column
// required on every row. Grouping matches ReadCSV: points (and times, in
// lockstep) merge by id in first-appearance order.
func ReadTimedCSV(r io.Reader) ([]geom.Trajectory, error) {
	trs, err := NewCSVDecoder(r).DecodeAllTimedCSV()
	if err != nil {
		return nil, err
	}
	return MergeByID(trs), nil
}

func splitCSV(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Format identifies an on-disk trajectory format.
type Format string

// Supported formats.
const (
	FormatCSV       Format = "csv"
	FormatBestTrack Format = "besttrack"
	FormatTelemetry Format = "telemetry"
)

// ParseFormat validates a format name (as used by the CLI flags).
func ParseFormat(name string) (Format, error) {
	switch Format(name) {
	case FormatCSV, FormatBestTrack, FormatTelemetry:
		return Format(name), nil
	default:
		return "", fmt.Errorf("trackio: unknown format %q (want csv, besttrack, or telemetry)", name)
	}
}

// DetectFormat guesses the format from a file name: .bt/.hurdat →
// Best Track, .tsv → telemetry, anything else CSV.
func DetectFormat(path string) Format {
	switch {
	case strings.HasSuffix(path, ".bt"), strings.HasSuffix(path, ".hurdat"):
		return FormatBestTrack
	case strings.HasSuffix(path, ".tsv"):
		return FormatTelemetry
	default:
		return FormatCSV
	}
}

// Read parses trajectories from r in the given format. species filters
// telemetry rows and is ignored by the other formats.
func Read(r io.Reader, f Format, species string) ([]geom.Trajectory, error) {
	switch f {
	case FormatCSV:
		return ReadCSV(r)
	case FormatBestTrack:
		return ReadBestTrack(r)
	case FormatTelemetry:
		return ReadTelemetry(r, species)
	default:
		return nil, fmt.Errorf("trackio: unknown format %q", f)
	}
}

// ReadFile opens and parses a trajectory file.
func ReadFile(path string, f Format, species string) ([]geom.Trajectory, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return Read(file, f, species)
}

// Write serialises trajectories to w in the given format.
func Write(w io.Writer, f Format, trs []geom.Trajectory) error {
	switch f {
	case FormatCSV:
		return WriteCSV(w, trs)
	case FormatBestTrack:
		return WriteBestTrack(w, trs)
	case FormatTelemetry:
		return WriteTelemetry(w, trs)
	default:
		return fmt.Errorf("trackio: unknown format %q", f)
	}
}

// WriteFile creates path and serialises trajectories into it.
func WriteFile(path string, f Format, trs []geom.Trajectory) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(file, f, trs); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
