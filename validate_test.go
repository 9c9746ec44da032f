package traclus_test

import (
	"context"
	"errors"
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

// TestGeodesicInputRule: a geodesic trajectory keeps to |latitude| ≤ 90 and
// |longitude| ≤ 360 degrees. Every path that takes trajectories rejects one
// outside the rule as a *ConfigError on Geometry before it builds, appends
// or classifies anything. Accepted, tracks at latitude ≈ 100 resolve a
// projection frame that no snapshot can hold, and a track spanning
// longitude ±1e306 projects to infinite coordinates.
func TestGeodesicInputRule(t *testing.T) {
	ctx := context.Background()
	cfg := traclus.Config{Eps: 150, MinLns: 5, MinSegmentLength: 100, Geometry: traclus.GeodesicGeometry()}
	good := synth.GPSTracks(3, 8, 25, 7)
	p := traclus.New(traclus.WithConfig(cfg))
	res, err := p.Run(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := p.NewAppender(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	built := ap.Result()
	m, err := service.BuildCtx(ctx, "geo", good, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	north := slices.Clone(good)
	for i := range north {
		north[i].Points = slices.Clone(north[i].Points)
		for k := range north[i].Points {
			north[i].Points[k].Y += 52.5
		}
	}
	wide := slices.Clone(good)
	wide[0].Points = slices.Clone(wide[0].Points)
	wide[0].Points[0].X, wide[0].Points[len(wide[0].Points)-1].X = -1e306, 1e306
	for what, bad := range map[string][]traclus.Trajectory{"latitude 100": north, "longitude ±1e306": wide} {
		for path, call := range map[string]func() error{
			"Run":         func() error { _, err := p.Run(ctx, bad); return err },
			"NewAppender": func() error { _, err := p.NewAppender(ctx, bad); return err },
			"Append":      func() error { _, err := ap.Append(ctx, bad[:1]); return err },
			"Estimate":    func() error { _, err := p.Estimate(ctx, bad, 100, 2000); return err },
			"Classify":    func() error { _, _, err := res.Classify(bad[0]); return err },
			"service.BuildCtx": func() error {
				_, err := service.BuildCtx(ctx, "bad", bad, cfg, &service.EstimateRange{Lo: 100, Hi: 2000}, nil)
				return err
			},
			"Model.Append": func() error { _, err := m.Append(ctx, bad[:1]); return err },
		} {
			var cerr *traclus.ConfigError
			if err := call(); !errors.As(err, &cerr) || cerr.Field != "Geometry" {
				t.Errorf("%s with %s: %v, want a *ConfigError on Geometry", path, what, err)
			}
		}
	}
	if ap.Result() != built {
		t.Error("rejected appends moved the appender")
	}
	if next, err := m.Append(ctx, good[:1]); err != nil || next.Epoch() != 1 {
		t.Errorf("a valid append after the rejected ones: %v, want epoch 1", err)
	}
	// The bounds themselves are inside the rule.
	edge := slices.Clone(good[:1])
	edge[0].Points = []traclus.Point{traclus.Pt(-360, -90), traclus.Pt(360, 90)}
	if _, err := p.Run(ctx, edge); err != nil {
		t.Errorf("Run over the corners of the rule: %v", err)
	}
}
