package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	traclus "repro"
	"repro/internal/service"
)

// modelName is the model every serve workload builds.
const modelName = "bench"

// daemon is a traclusd subprocess serving on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	logf *os.File
	done chan struct{} // closed once the process has exited and been reaped
}

// startDaemon starts bin on a free loopback port with the given extra flags
// and waits until it answers /v1/healthz. Its output goes to a log file in
// dir.
func startDaemon(ctx context.Context, bin, dir string, extra ...string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(dir, "traclusd-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-workers", "0"}, extra...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", sutProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting traclusd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logf: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: stop decides when it ends
		close(d.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("traclusd exited during start-up; see %s", logf.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("traclusd did not become healthy within 15s")
		}
	}
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10s) and waits
// until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.logf.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// client is an HTTP client to one daemon over one connection: every
// workload sends its requests one at a time (see serveClassify).
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

// call sends one request and fails unless the status is want. A non-nil
// into receives the decoded JSON response; the raw body is returned.
func (c *client) call(ctx context.Context, method, path string, body []byte, want int, into any) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			return nil, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return data, nil
}

// buildModel builds the workload's model under name over POST /v1/models
// and polls its job until the model is servable.
func (c *client) buildModel(ctx context.Context, name string, csv []byte) error {
	body, err := json.Marshal(map[string]any{
		"name": name, "format": "csv", "data": string(csv),
		"config": map[string]any{"eps": eps, "min_lns": minLns, "cost_advantage": costAdvantage, "min_seg_len": minSegmentLength},
	})
	if err != nil {
		return err
	}
	var job service.Job
	if _, err := c.call(ctx, http.MethodPost, "/v1/models", body, http.StatusAccepted, &job); err != nil {
		return err
	}
	for job.State == service.JobRunning {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if _, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+job.ID, nil, http.StatusOK, &job); err != nil {
			return err
		}
	}
	if job.State != service.JobDone {
		return fmt.Errorf("build job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	return nil
}

// serveSetup starts a daemon and builds the model, each time from scratch,
// until setupDone, and keeps the last daemon running. Each set-up is timed
// from process start until the model is servable; each build from its
// request until the model is servable.
func serveSetup(ctx context.Context, o options, work string, csv []byte, extra func(rep int) []string) (*daemon, samples, samples, error) {
	var setup, build samples
	start := time.Now()
	for r := 0; ; r++ {
		var args []string
		if extra != nil {
			args = extra(r)
		}
		t0 := time.Now()
		d, err := startDaemon(ctx, o.traclusd, work, args...)
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := time.Now()
		if err := newClient(d.base).buildModel(ctx, modelName, csv); err != nil {
			d.stop()
			return nil, nil, nil, err
		}
		setup, build = append(setup, time.Since(t0)), append(build, time.Since(t1))
		if setupDone(o, len(setup), start) {
			return d, setup, build, nil
		}
		d.stop()
	}
}

// classifyResponse is the body of POST /v1/models/{name}/classify.
type classifyResponse struct {
	Results  []service.Assignment `json:"results"`
	TimedOut bool                 `json:"timed_out"`
}

// checkAnswers verifies one classify response. With want set, every answer
// must equal the in-process one bit for bit; without it (the model changes
// under serve-mixed) each answer must echo its trajectory and carry either
// a cluster or an error.
func checkAnswers(got classifyResponse, trs []traclus.Trajectory, want []service.Assignment) error {
	if got.TimedOut || len(got.Results) != len(trs) {
		return fmt.Errorf("classify: %d answers for %d trajectories (timed out: %v)", len(got.Results), len(trs), got.TimedOut)
	}
	for i, a := range got.Results {
		if a.TrajID != trs[i].ID || (a.Err == "") != (a.Cluster >= 0) {
			return fmt.Errorf("classify: malformed answer %+v for trajectory %d", a, trs[i].ID)
		}
		if want == nil {
			continue
		}
		w := want[i]
		if a.Cluster != w.Cluster || math.Float64bits(a.Distance) != math.Float64bits(w.Distance) || a.Err != w.Err {
			return fmt.Errorf("classify: trajectory %d: daemon answered %+v, in-process model %+v", a.TrajID, a, w)
		}
	}
	return nil
}

// loadResult is what a classify load loop measured.
type loadResult struct {
	lat  samples
	errs []error // one per failed request
}

// classifyLoad is one closed-loop client of model: it sends its next
// classify request only after the previous reply arrived, while more(requests
// sent so far) reports true. Bodies are taken round-robin from q, continuing
// from *next. A request is timed until its reply has been read; decoding and
// checking it are not.
func classifyLoad(ctx context.Context, c *client, model string, q *queries, want [][]service.Assignment, next *int, more func(sent int) bool) loadResult {
	var r loadResult
	for more(len(r.lat)) && ctx.Err() == nil {
		i := *next % len(q.bodies)
		*next++
		t0 := time.Now()
		data, err := c.call(ctx, http.MethodPost, "/v1/models/"+model+"/classify", q.bodies[i], http.StatusOK, nil)
		r.lat = append(r.lat, time.Since(t0))
		var resp classifyResponse
		if err == nil {
			err = json.Unmarshal(data, &resp)
		}
		if err == nil {
			var w []service.Assignment
			if want != nil {
				w = want[i]
			}
			err = checkAnswers(resp, q.trs[i], w)
		}
		if err != nil {
			r.errs = append(r.errs, err)
		}
	}
	return r
}

func (r loadResult) record(oc *outcome) {
	for range len(r.lat) - len(r.errs) {
		oc.op(nil)
	}
	for _, err := range r.errs {
		oc.op(err)
	}
}

// expectedAnswers classifies every query body in-process against model as
// decoded from the daemon's own snapshot export.
func expectedAnswers(ctx context.Context, c *client, model string, q *queries) ([][]service.Assignment, error) {
	snap, err := c.call(ctx, http.MethodGet, "/v1/models/"+model+"/snapshot", nil, http.StatusOK, nil)
	if err != nil {
		return nil, err
	}
	m, err := service.DecodeModel(snap)
	if err != nil {
		return nil, fmt.Errorf("decoding the daemon's snapshot: %w", err)
	}
	want := make([][]service.Assignment, len(q.trs))
	for i, trs := range q.trs {
		want[i] = m.ClassifyBatch(ctx, trs, 0)
	}
	return want, nil
}

// serveClassify: one connection loops on classify against a model built
// during set-up; a warm-up sixth of the run is discarded. The only write is
// the model build of each set-up. One connection, not one per CPU: with two,
// each request queued behind the other's on the daemon's one CPU, the
// client's own scheduling decided how long, and the median latency of two
// runs of one seed differed by up to a third, against 4% with one
// connection.
func serveClassify(ctx context.Context, w workload, o options, rep *report, oc *outcome) error {
	csv, err := csvBody(hurricanes(w.tracks, o.seed, 0))
	if err != nil {
		return err
	}
	q, err := newQueries(o.seed, poolSize)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp("", "traclusbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	d, setup, build, err := serveSetup(ctx, o, work, csv, nil)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base)
	want, err := expectedAnswers(ctx, c, modelName, q)
	if err != nil {
		return err
	}

	next := 0
	run := func(limit time.Duration) loadResult {
		start := time.Now()
		return classifyLoad(ctx, c, modelName, q, want, &next, func(int) bool { return time.Since(start) < limit })
	}
	run(time.Duration(o.seconds) * time.Second / 6).record(oc)
	// The measured window runs in one-second slices, each with its own peak
	// RSS sample.
	var r loadResult
	rss := newRSSSampler(d.pid())
	start := time.Now()
	for time.Since(start) < time.Duration(o.seconds)*time.Second && ctx.Err() == nil {
		rss.start()
		slice := run(min(time.Second, time.Duration(o.seconds)*time.Second-time.Since(start)))
		if err := rss.stop(); err != nil {
			return err
		}
		r.lat, r.errs = append(r.lat, slice.lat...), append(r.errs, slice.errs...)
	}
	window := time.Since(start)
	r.record(oc)
	if err := ctx.Err(); err != nil {
		return err
	}

	rep.Metrics.add("setup_s", setup.median(), "s")
	rep.Metrics.add("update_p50_ms", build.median()*1e3, "ms")
	rep.Metrics.add("query_p50_ms", r.lat.median()*1e3, "ms")
	rss.report(rep)
	rep.Extras.add("setups", float64(len(setup)), "count")
	rep.Extras.add("requests", float64(len(r.lat)), "count")
	rep.Extras.add("requests_per_s", float64(len(r.lat))/window.Seconds(), "1/s")
	rep.Extras.add("query_p90_ms", r.lat.percentile(0.90)*1e3, "ms")
	if len(r.lat) >= 1000 {
		rep.Extras.add("query_p99_ms", r.lat.percentile(0.99)*1e3, "ms")
	}
	return nil
}

// modelSummary is the part of a model summary serve-mixed checks.
type modelSummary struct {
	Epoch         int64 `json:"epoch"`
	Trajectories  int   `json:"trajectories"`
	TotalSegments int   `json:"total_segments"`
}

// serveMixed: rounds of mixedCycles cycles against a persisted model, each
// cycle append → batchReads classify requests → sweep → clusters → get over
// one connection, so every read lands right after a write and every append
// invalidates the dendrogram the next sweep rebuilds. Rounds run until the
// measured seconds are up, each from a freshly built model, so a faster
// commit runs more rounds, not a bigger model. A cycle's update time is its
// append, sweep, clusters and get; its reads are timed on their own, so a
// change to one side cannot hide behind the other. Reads are not sent from a
// second connection beside the writes: on the daemon's one CPU a read then
// waited for the Go scheduler to preempt the sweep, and whether it waited
// 2 ms or 20 ms flipped from one run to the next.
func serveMixed(ctx context.Context, w workload, o options, rep *report, oc *outcome) error {
	trs := hurricanes(w.tracks, o.seed, 0)
	csv, err := csvBody(trs)
	if err != nil {
		return err
	}
	q, err := newQueries(o.seed, poolSize)
	if err != nil {
		return err
	}
	var appendBodies [][]byte
	for _, tr := range appendTracks(o.seed) {
		data, err := csvBody([]traclus.Trajectory{tr})
		if err == nil {
			data, err = json.Marshal(map[string]string{"format": "csv", "data": string(data)})
		}
		if err != nil {
			return err
		}
		appendBodies = append(appendBodies, data)
	}
	work, err := os.MkdirTemp("", "traclusbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	d, setup, _, err := serveSetup(ctx, o, work, csv, func(r int) []string {
		return []string{"-data-dir", filepath.Join(work, fmt.Sprintf("data-%d", r))}
	})
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base)

	var update, appendLat, firstRead, sweepLat, clustersLat, getLat samples
	var reads loadResult
	next, rounds := 0, 0
	model := modelName
	var upd time.Duration // the current cycle's update time
	timed := func(lat *samples, fn func() error) {
		t0 := time.Now()
		err := fn()
		dt := time.Since(t0)
		*lat, upd = append(*lat, dt), upd+dt
		oc.op(err)
	}
	rss := newRSSSampler(d.pid())
	for start := time.Now(); rounds == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second; rounds++ {
		if rounds > 0 {
			// Each round appends to a fresh model, under a new name so that a
			// late write-behind persist of the old one cannot bring it back.
			_, err := c.call(ctx, http.MethodDelete, "/v1/models/"+model, nil, http.StatusOK, nil)
			oc.op(err)
			model = fmt.Sprintf("%s-%d", modelName, rounds)
			if err := c.buildModel(ctx, model, csv); err != nil {
				return err
			}
		}
		path := "/v1/models/" + model
		for i, body := range appendBodies {
			wantEpoch, wantTrajs := int64(i+1), len(trs)+i+1
			upd = 0
			rss.start()
			var sum modelSummary
			timed(&appendLat, func() error {
				if _, err := c.call(ctx, http.MethodPost, path+"/append", body, http.StatusOK, &sum); err != nil {
					return err
				}
				if sum.Epoch != wantEpoch || sum.Trajectories != wantTrajs {
					return fmt.Errorf("append %d: epoch %d with %d trajectories, want epoch %d with %d", i, sum.Epoch, sum.Trajectories, wantEpoch, wantTrajs)
				}
				return nil
			})
			r := classifyLoad(ctx, c, model, q, nil, &next, func(sent int) bool { return sent < batchReads })
			if err := ctx.Err(); err != nil {
				return err
			}
			firstRead = append(firstRead, r.lat[0])
			reads.lat, reads.errs = append(reads.lat, r.lat...), append(reads.errs, r.errs...)
			timed(&sweepLat, func() error {
				var sw struct {
					Lo, Hi float64
					Steps  int
					Points []service.SweepPoint
				}
				if _, err := c.call(ctx, http.MethodGet, path+"/sweep", nil, http.StatusOK, &sw); err != nil {
					return err
				}
				if sw.Lo != eps/2 || sw.Hi != 2*eps || len(sw.Points) != sw.Steps || sw.Steps != 16 {
					return fmt.Errorf("sweep %d: range [%v, %v] with %d of %d points, want [%v, %v] with 16", i, sw.Lo, sw.Hi, len(sw.Points), sw.Steps, eps/2, 2*eps)
				}
				return nil
			})
			timed(&clustersLat, func() error {
				var cut service.CutResult
				if _, err := c.call(ctx, http.MethodGet, fmt.Sprintf("%s/clusters?eps=%v", path, eps), nil, http.StatusOK, &cut); err != nil {
					return err
				}
				if cut.Eps != eps || cut.TotalSegments != sum.TotalSegments {
					return fmt.Errorf("clusters %d: ε %v over %d segments, want ε %v over %d", i, cut.Eps, cut.TotalSegments, eps, sum.TotalSegments)
				}
				return nil
			})
			timed(&getLat, func() error {
				var got modelSummary
				if _, err := c.call(ctx, http.MethodGet, path, nil, http.StatusOK, &got); err != nil {
					return err
				}
				if got.Epoch != wantEpoch || got.Trajectories != wantTrajs {
					return fmt.Errorf("get %d: epoch %d with %d trajectories, want epoch %d with %d", i, got.Epoch, got.Trajectories, wantEpoch, wantTrajs)
				}
				return nil
			})
			update = append(update, upd)
			if err := rss.stop(); err != nil {
				return err
			}
		}
	}
	reads.record(oc)

	// The last appended model must classify over HTTP exactly as its own
	// snapshot does in-process.
	want, err := expectedAnswers(ctx, c, model, q)
	if err != nil {
		return err
	}
	classifyLoad(ctx, c, model, q, want, &next, func(sent int) bool { return sent < batchReads }).record(oc)

	rep.Metrics.add("setup_s", setup.median(), "s")
	rep.Metrics.add("update_p50_ms", update.median()*1e3, "ms")
	rep.Metrics.add("query_p50_ms", reads.lat.median()*1e3, "ms")
	rss.report(rep)
	rep.Extras.add("setups", float64(len(setup)), "count")
	rep.Extras.add("rounds", float64(rounds), "count")
	rep.Extras.add("cycles", float64(len(update)), "count")
	rep.Extras.add("append_p50_ms", appendLat.median()*1e3, "ms")
	rep.Extras.add("query_first_p50_ms", firstRead.median()*1e3, "ms")
	rep.Extras.add("sweep_p50_ms", sweepLat.median()*1e3, "ms")
	rep.Extras.add("clusters_p50_ms", clustersLat.median()*1e3, "ms")
	rep.Extras.add("get_p50_ms", getLat.median()*1e3, "ms")
	return nil
}
