package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	traclus "repro"
	"repro/internal/service"
)

// Set-up is repeated at least setupReps times and for at least a sixth of
// the measured seconds, and setup_s is the median, so one slow repetition
// does not move it. A cheap set-up varies the most — on the machine the
// benchmark was sized on, serve-mixed's 400-track daemon build took
// 125–215 ms within one run — so the time floor gives it more repetitions
// than the costly ones, whose count the time budget of a benchmark check
// caps.
const setupReps = 7

// setupDone reports whether n set-up repetitions, the first started at
// start, are enough.
func setupDone(o options, n int, start time.Time) bool {
	return n >= setupReps && time.Since(start) >= time.Duration(o.seconds)*time.Second/6
}

// buildLoop times Pipeline.Run on the workload's input, each build followed
// by batchReads in-process classify reads against the result it produced.
// Set-up — generating the input and building once, which fills caches and
// finishes any lazy initialisation — is repeated until setupDone; then
// builds and their reads run back to back for the measured seconds. Every
// build starts after a full garbage collection, untimed, so that neither its
// time nor its peak RSS depends on how much garbage the previous one left:
// without it the median peak of build-auto ranged over 67–83 MB from run to
// run, with it over 56–59 MB. Every build's clustering must match the first
// one's, and on the pinned seed the committed fingerprint; every read must
// answer as the first read of the same batch did.
func buildLoop(ctx context.Context, w workload, o options, rep *report, oc *outcome) error {
	q, err := newQueries(o.seed, batchReads*batchSize)
	if err != nil {
		return err
	}
	p := traclus.New(w.options()...)
	var setup samples
	var trs []traclus.Trajectory
	var first *traclus.Result
	var want string
	for start := time.Now(); !setupDone(o, len(setup), start); {
		runtime.GC()
		t0 := time.Now()
		trs = hurricanes(w.tracks, o.seed, 0)
		res, err := p.Run(ctx, trs)
		setup = append(setup, time.Since(t0))
		if err != nil {
			return fmt.Errorf("set-up build: %w", err)
		}
		if first == nil {
			first, want = res, resultFingerprint(res)
			rep.Fingerprint = want
			oc.op(checkPinned(w, o, want))
		} else {
			oc.op(sameFingerprint("set-up build", resultFingerprint(res), want))
		}
	}

	var update, query, firstRead samples
	var allocMB []float64
	var ms0, ms1 runtime.MemStats
	answers := make([][]service.Assignment, len(q.trs))
	next := 0
	rss := newRSSSampler(os.Getpid())
	for start := time.Now(); time.Since(start) < time.Duration(o.seconds)*time.Second || len(update) < 2; {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		rss.start()
		t0 := time.Now()
		res, err := p.Run(ctx, trs)
		d := time.Since(t0)
		if err := rss.stop(); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		if err == nil {
			err = sameFingerprint(fmt.Sprintf("build %d", len(update)), resultFingerprint(res), want)
		}
		oc.op(err)
		update = append(update, d)
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		if res == nil {
			continue
		}

		for k := range batchReads {
			i := next % len(q.trs)
			next++
			t0 := time.Now()
			got := classifyLocal(res, q.trs[i])
			query = append(query, time.Since(t0))
			if k == 0 {
				firstRead = append(firstRead, query[len(query)-1])
			}
			oc.op(checkAnswers(classifyResponse{Results: got}, q.trs[i], answers[i]))
			if answers[i] == nil {
				answers[i] = got
			}
		}
	}

	rep.Metrics.add("setup_s", setup.median(), "s")
	rep.Metrics.add("update_p50_ms", update.median()*1e3, "ms")
	rep.Metrics.add("query_p50_ms", query.median()*1e3, "ms")
	rss.report(rep)
	rep.Extras.add("setups", float64(len(setup)), "count")
	rep.Extras.add("builds", float64(len(update)), "count")
	rep.Extras.add("queries", float64(len(query)), "count")
	rep.Extras.add("query_first_p50_ms", firstRead.median()*1e3, "ms")
	rep.Extras.add("build_alloc_mb", median(allocMB), "MB")
	rep.Extras.add("segments", float64(first.TotalSegments), "count")
	rep.Extras.add("clusters", float64(len(first.Clusters)), "count")
	rep.Extras.add("dist_calls", float64(first.DistCalls()), "count")
	if first.Estimated != nil {
		rep.Extras.add("estimated_eps", first.Estimated.Eps, "1")
	}
	return nil
}

// classifyLocal answers one classify request in-process through the
// library, in the daemon's answer format. The first call on a result builds
// its classifier, as the first classify after a daemon append does.
func classifyLocal(res *traclus.Result, trs []traclus.Trajectory) []service.Assignment {
	out := make([]service.Assignment, len(trs))
	for i, tr := range trs {
		out[i] = service.Assignment{TrajID: tr.ID, Cluster: -1}
		cl, d, err := res.Classify(tr)
		if err != nil {
			out[i].Err = err.Error()
			continue
		}
		out[i].Cluster, out[i].Distance = cl, d
	}
	return out
}

// checkPinned compares a build's fingerprint with the one committed for the
// pinned seed at the workload's default size. Floating-point fusion differs
// across architectures, so the pin holds on amd64 only; elsewhere, and on
// other seeds and sizes, runs are checked against each other.
func checkPinned(w workload, o options, got string) error {
	want, ok := pinnedFingerprints[w.name]
	if !ok || o.seed != pinnedSeed || o.tracks != 0 || runtime.GOARCH != "amd64" {
		return nil
	}
	if got != want {
		return fmt.Errorf("%s seed %d: fingerprint %s, committed %s", w.name, o.seed, got, want)
	}
	return nil
}
