package trackio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// LimitError reports that a streaming decode exceeded a configured bound.
// Servers match it with errors.As to answer 413 instead of 400.
type LimitError struct {
	// What names the exhausted bound ("points" or "trajectories").
	What string
	// Limit is the configured maximum.
	Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("trackio: input exceeds %d %s", e.Limit, e.What)
}

// CSVDecoder streams "traj_id,x,y" rows — or "traj_id,x,y,t" rows carrying a
// per-point timestamp — (header optional) into trajectories one at a time,
// without buffering the whole input — the request-body reader behind
// cmd/traclusd. Unlike ReadCSV, which groups rows by id across the whole
// file, the decoder treats each maximal contiguous run of one id as a
// trajectory (the order WriteCSV produces), so memory is bounded by the
// longest single trajectory plus the configured limits. A trajectory's rows
// must agree on whether the timestamp column is present; mixing within one
// trajectory is a parse error.
type CSVDecoder struct {
	sc   *bufio.Scanner
	line int
	err  error

	// cur is the trajectory being accumulated; curSet marks it live.
	// curTimes is non-nil exactly when cur's rows carry the timestamp
	// column.
	cur      geom.Trajectory
	curTimes []float64
	curSet   bool

	// MaxPoints and MaxTrajectories bound the total input when positive;
	// exceeding either yields a *LimitError. Set them before the first Next.
	MaxPoints       int
	MaxTrajectories int
	points, trajs   int
}

// NewCSVDecoder wraps r for streaming CSV decoding.
func NewCSVDecoder(r io.Reader) *CSVDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &CSVDecoder{sc: sc}
}

// Next returns the next trajectory, or io.EOF after the last one. Any other
// error is a parse failure or limit violation; decoding cannot continue
// after either. Rows carrying the optional timestamp column still parse (the
// timestamp is parsed, then dropped); use NextTimed to keep it.
func (d *CSVDecoder) Next() (geom.Trajectory, error) {
	tr, _, err := d.next()
	return tr, err
}

// NextTimed is Next keeping the timestamp column: it returns the next
// trajectory with its per-point Times, and fails if the trajectory's rows
// do not carry one.
func (d *CSVDecoder) NextTimed() (geom.Trajectory, error) {
	tr, times, err := d.next()
	if err != nil {
		return geom.Trajectory{}, err
	}
	if times == nil {
		return geom.Trajectory{}, d.fail(fmt.Errorf(
			"trackio: trajectory %d has no timestamp column (timed decode needs traj_id,x,y,t rows)", tr.ID))
	}
	tr.Times = times
	return tr, nil
}

func (d *CSVDecoder) next() (geom.Trajectory, []float64, error) {
	if d.err != nil {
		return geom.Trajectory{}, nil, d.err
	}
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" {
			continue
		}
		f := splitCSV(text)
		if len(f) != 3 && len(f) != 4 {
			return geom.Trajectory{}, nil, d.fail(fmt.Errorf("trackio: line %d: expected 3 or 4 CSV fields, got %d", d.line, len(f)))
		}
		id, err := strconv.Atoi(f[0])
		if err != nil {
			if d.line == 1 {
				continue // header
			}
			return geom.Trajectory{}, nil, d.fail(fmt.Errorf("trackio: line %d: bad traj_id %q", d.line, f[0]))
		}
		x, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return geom.Trajectory{}, nil, d.fail(fmt.Errorf("trackio: line %d: bad x %q", d.line, f[1]))
		}
		y, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return geom.Trajectory{}, nil, d.fail(fmt.Errorf("trackio: line %d: bad y %q", d.line, f[2]))
		}
		timed := len(f) == 4
		var ts float64
		if timed {
			if ts, err = strconv.ParseFloat(f[3], 64); err != nil {
				return geom.Trajectory{}, nil, d.fail(fmt.Errorf("trackio: line %d: bad t %q", d.line, f[3]))
			}
		}
		if d.MaxPoints > 0 && d.points >= d.MaxPoints {
			return geom.Trajectory{}, nil, d.fail(&LimitError{What: "points", Limit: d.MaxPoints})
		}
		d.points++
		if d.curSet && id != d.cur.ID {
			out, outTimes := d.cur, d.curTimes
			d.cur = geom.Trajectory{ID: id, Weight: 1, Points: []geom.Point{geom.Pt(x, y)}}
			d.curTimes = nil
			if timed {
				d.curTimes = []float64{ts}
			}
			if err := d.countTrajectory(); err != nil {
				return geom.Trajectory{}, nil, err
			}
			return out, outTimes, nil
		}
		if !d.curSet {
			d.curSet = true
			d.cur = geom.Trajectory{ID: id, Weight: 1}
			d.curTimes = nil
			if err := d.countTrajectory(); err != nil {
				return geom.Trajectory{}, nil, err
			}
		}
		if timed != (d.curTimes != nil) && len(d.cur.Points) > 0 {
			return geom.Trajectory{}, nil, d.fail(fmt.Errorf(
				"trackio: line %d: trajectory %d mixes timed and untimed rows", d.line, id))
		}
		d.cur.Points = append(d.cur.Points, geom.Pt(x, y))
		if timed {
			d.curTimes = append(d.curTimes, ts)
		}
	}
	if err := d.sc.Err(); err != nil {
		return geom.Trajectory{}, nil, d.fail(fmt.Errorf("trackio: %w", err))
	}
	if d.curSet {
		d.curSet = false
		return d.cur, d.curTimes, nil
	}
	return geom.Trajectory{}, nil, d.fail(io.EOF)
}

func (d *CSVDecoder) countTrajectory() error {
	if d.MaxTrajectories > 0 && d.trajs >= d.MaxTrajectories {
		return d.fail(&LimitError{What: "trajectories", Limit: d.MaxTrajectories})
	}
	d.trajs++
	return nil
}

func (d *CSVDecoder) fail(err error) error {
	d.err = err
	return err
}

// DecodeAllCSV drains the decoder into a slice — the convenience form for
// callers that need the whole (bounded) batch at once. Pass the result
// through MergeByID to recover ReadCSV's whole-input id grouping.
func (d *CSVDecoder) DecodeAllCSV() ([]geom.Trajectory, error) { return d.drain(d.Next) }

// DecodeAllTimedCSV drains the decoder as NextTimed trajectories. Every row
// in the input must carry the timestamp column.
func (d *CSVDecoder) DecodeAllTimedCSV() ([]geom.Trajectory, error) { return d.drain(d.NextTimed) }

func (d *CSVDecoder) drain(next func() (geom.Trajectory, error)) ([]geom.Trajectory, error) {
	var trs []geom.Trajectory
	for {
		tr, err := next()
		if err == io.EOF {
			return trs, nil
		}
		if err != nil {
			return nil, err
		}
		trs = append(trs, tr)
	}
}

// MergeByID merges trajectories sharing an ID by concatenating their points
// — and their Times, in lockstep — in slice order, keeping
// first-appearance order — exactly ReadCSV's grouping. Combined with
// DecodeAllCSV it makes the streaming path parse interleaved-id input
// identically to ReadCSV; a later duplicate's label/weight are ignored in
// favour of the first's. The returned slice is new, but its Points and
// Times slices may alias (and extend) the inputs' backing arrays — treat
// the input as consumed.
func MergeByID(trs []geom.Trajectory) []geom.Trajectory {
	out := make([]geom.Trajectory, 0, len(trs))
	at := map[int]int{} // id → index in out
	for _, tr := range trs {
		if i, ok := at[tr.ID]; ok {
			out[i].Points = append(out[i].Points, tr.Points...)
			out[i].Times = append(out[i].Times, tr.Times...)
			continue
		}
		at[tr.ID] = len(out)
		out = append(out, tr)
	}
	return out
}
