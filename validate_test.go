package traclus_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/service"
	"repro/internal/synth"

	traclus "repro"
)

// TestOneValidateForEveryTrajectory: every entry point that takes
// trajectories runs the one Trajectory.Validate, time column included, and
// rejects a malformed trajectory before it builds, appends or classifies
// anything — under the spatiotemporal geometry exactly as under planar.
func TestOneValidateForEveryTrajectory(t *testing.T) {
	ctx := context.Background()
	type defect struct {
		name   string
		timed  bool // the defect is in the time column
		mutate func(tr *traclus.Trajectory)
	}
	defects := []defect{
		{"NaN coordinate", false, func(tr *traclus.Trajectory) { tr.Points[3].X = math.NaN() }},
		{"+Inf coordinate", false, func(tr *traclus.Trajectory) { tr.Points[3].Y = math.Inf(1) }},
		{"weight -2", false, func(tr *traclus.Trajectory) { tr.Weight = -2 }},
		{"NaN weight", false, func(tr *traclus.Trajectory) { tr.Weight = math.NaN() }},
		{"one point", false, func(tr *traclus.Trajectory) {
			tr.Points = tr.Points[:1]
			if tr.Times != nil {
				tr.Times = tr.Times[:1]
			}
		}},
		{"+Inf time", true, func(tr *traclus.Trajectory) { tr.Times[len(tr.Times)-1] = math.Inf(1) }},
		{"NaN time", true, func(tr *traclus.Trajectory) { tr.Times[5] = math.NaN() }},
		{"decreasing times", true, func(tr *traclus.Trajectory) { tr.Times[5] = tr.Times[4] - 1 }},
		{"fewer times than points", true, func(tr *traclus.Trajectory) { tr.Times = tr.Times[:3] }},
	}
	for _, geo := range []string{"planar", "spatiotemporal"} {
		cfg := traclus.Config{Eps: 30, MinLns: 6, CostAdvantage: 15, MinSegmentLength: 40}
		good := synth.RushHours(12, 24, 4, 3, 30, 10, 5000)
		if geo == "spatiotemporal" {
			cfg.Geometry = traclus.SpatiotemporalGeometry(0.05)
		} else {
			for i := range good {
				good[i].Times = nil
			}
		}
		p := traclus.New(traclus.WithConfig(cfg))
		res, err := p.Run(ctx, good)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := p.NewAppender(ctx, good)
		if err != nil {
			t.Fatal(err)
		}
		m, err := service.BuildCtx(ctx, "valid-"+geo, good, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		entries := []struct {
			name string
			call func(bad []traclus.Trajectory) error
		}{
			{"Run", func(bad []traclus.Trajectory) error { _, err := p.Run(ctx, bad); return err }},
			{"NewAppender", func(bad []traclus.Trajectory) error { _, err := p.NewAppender(ctx, bad); return err }},
			{"Append", func(bad []traclus.Trajectory) error { _, err := ap.Append(ctx, bad[:1]); return err }},
			{"Classify", func(bad []traclus.Trajectory) error { _, _, err := res.Classify(bad[0]); return err }},
			{"service.BuildCtx", func(bad []traclus.Trajectory) error {
				_, err := service.BuildCtx(ctx, "bad", bad, cfg, nil, nil)
				return err
			}},
			{"Model.Append", func(bad []traclus.Trajectory) error { _, err := m.Append(ctx, bad[:1]); return err }},
		}
		for _, d := range defects {
			if d.timed && geo != "spatiotemporal" {
				continue
			}
			bad := slices.Clone(good)
			bad[0].Points = slices.Clone(bad[0].Points)
			bad[0].Times = slices.Clone(bad[0].Times)
			d.mutate(&bad[0])
			for _, e := range entries {
				if err := e.call(bad); err == nil {
					t.Errorf("%s: %s accepted a trajectory with %s", geo, e.name, d.name)
				}
			}
		}
		// The rejected appends changed nothing: the appender still stands at
		// the build, and the model's next valid append is its first epoch.
		if got, want := appendFingerprint(ap.Result()), appendFingerprint(res); got != want {
			t.Errorf("%s: rejected appends moved the appender: %s, want %s", geo, got, want)
		}
		if next, err := m.Append(ctx, good[:1]); err != nil {
			t.Errorf("%s: a valid append after the rejected ones: %v", geo, err)
		} else if next.Epoch() != 1 {
			t.Errorf("%s: a valid append after the rejected ones reached epoch %d, want 1", geo, next.Epoch())
		}
	}
}
