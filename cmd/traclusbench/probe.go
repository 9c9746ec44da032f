package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	traclus "repro"
	"repro/internal/core"
	"repro/internal/dendro"
	"repro/internal/lsdist"
	"repro/internal/mdl"
	"repro/internal/params"
	"repro/internal/quality"
	"repro/internal/segclust"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/spindex"
	"repro/internal/trackio"
)

// refineBlock is the grouping's candidate block size (segclust scores each
// neighborhood's candidates at most this many at a time).
const refineBlock = 1024

// coreConfig is the engine configuration Pipeline.Run derives from the
// workload's Config.
func coreConfig() core.Config {
	return core.Config{
		Eps:       eps,
		MinLns:    minLns,
		Partition: mdl.Config{CostAdvantage: costAdvantage, MinLength: minSegmentLength},
		Distance:  lsdist.Options{Weights: lsdist.DefaultWeights()},
	}
}

// decomposed is one build made of explicit calls into each layer.
type decomposed struct {
	items  []segclust.Item
	shared *segclust.SharedIndex
	ccfg   core.Config // with the estimated ε and MinLns on auto builds
	den    *dendro.Dendrogram
	evals  int
	est    *traclus.Estimate
	group  *segclust.Result
	out    *core.Output
}

// decompose builds w's model the way Pipeline.Run does, one layer call at a
// time, each inside a span: partition → index → [dendrogram → estimate] →
// group → represent.
func decompose(ctx context.Context, tr *tracer, w workload, trs []traclus.Trajectory) (*decomposed, error) {
	d := &decomposed{ccfg: coreConfig()}
	var err error
	tr.do("build", func() {
		if err = core.ValidateTrajectories(trs); err != nil {
			return
		}
		tr.do("mdl", func() { d.items, err = core.PartitionAllCtx(ctx, trs, d.ccfg, nil) })
		if err != nil {
			return
		}
		tr.do("spindex", func() {
			d.shared = segclust.NewSharedIndexFor(d.items, d.ccfg.Distance, d.ccfg.ResolvedBackend())
		})
		if w.auto {
			tr.do("dendro", func() { d.den, err = dendro.FromShared(ctx, d.shared, autoHi, d.ccfg.Workers) })
			if err != nil {
				return
			}
			var est params.Estimate
			tr.do("params", func() {
				an := params.AnnealOptions{Workers: d.ccfg.Workers, OnEval: func() { d.evals++ }}
				est, err = params.EstimateEpsDendroCtx(ctx, d.den, autoLo, autoHi, an)
			})
			if err != nil {
				return
			}
			d.ccfg.Eps = est.Eps
			d.ccfg.MinLns = float64(est.MinLnsLo+est.MinLnsHi) / 2
			d.est = &traclus.Estimate{Eps: est.Eps, Entropy: est.Entropy, AvgNeighbors: est.AvgNeighbors,
				MinLnsLo: est.MinLnsLo, MinLnsHi: est.MinLnsHi}
		}
		tr.do("segclust", func() { d.group, err = segclust.RunSharedCtx(ctx, d.shared, d.ccfg.Segclust(), nil) })
		if err != nil {
			return
		}
		tr.do("core", func() { d.out, err = core.AssembleCtx(ctx, d.items, d.group, d.ccfg, nil, nil) })
	})
	return d, err
}

func (d *decomposed) fingerprint() string {
	cs := make([]clusterView, len(d.out.Clusters))
	for i, c := range d.out.Clusters {
		cs[i] = clusterView{c.Segments, c.Trajectories, c.Representative}
	}
	return fingerprint(len(d.out.Items), d.out.Result.NoiseCount(), d.out.Result.Removed, d.est, cs)
}

func sameFingerprint(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: clustering %s differs from the reference %s", what, got, want)
	}
	return nil
}

func sameLabels(what string, got, want *segclust.Result) error {
	if !slices.Equal(got.ClusterOf, want.ClusterOf) || got.Removed != want.Removed {
		return fmt.Errorf("%s: labels differ from the grouping run", what)
	}
	return nil
}

// timeReps runs fn reps times inside spans named name and returns the
// median duration in seconds; it stops at the first error.
func timeReps(tr *tracer, name string, reps int, fn func() error) (float64, error) {
	var err error
	for i := 0; i < reps && err == nil; i++ {
		tr.do(name, func() { err = fn() })
	}
	return tr.durations(name).median(), err
}

// replayed is what one replay of a grouping's inner loops measured.
type replayed struct {
	candTime, kernelTime  time.Duration
	candidates, neighbors int
}

// replay re-runs the grouping's candidate generation and distance kernel
// serially at the build's ε: candidate generation alone, then again with
// the kernel scoring the candidates in blocks of at most refineBlock, as the
// grouping does, timing only the kernel calls.
func replay(tr *tracer, dec *decomposed) replayed {
	var r replayed
	e, n := dec.ccfg.Eps, dec.shared.Len()
	cur := dec.shared.Cursor()
	var cand []int
	var dists []float64
	r.candTime = tr.do("replay.candidates", func() {
		for i := 0; i < n; i++ {
			cand = cur.CandidatesOf(i, e, cand[:0])
			r.candidates += len(cand)
		}
	})
	tr.do("replay.kernel", func() {
		for i := 0; i < n; i++ {
			cand = cur.CandidatesOf(i, e, cand[:0])
			for lo := 0; lo < len(cand); lo += refineBlock {
				t0 := time.Now()
				dists = cur.DistBlock(i, cand[lo:min(lo+refineBlock, len(cand))], dists)
				r.kernelTime += time.Since(t0)
				for _, d := range dists {
					if d <= e {
						r.neighbors++
					}
				}
			}
		}
	})
	return r
}

// probe is the traced run. It alternates untraced Pipeline.Run calls with
// the traced decomposition of the same build for the measured seconds —
// asserting both produce the same clustering, and reporting the tracing
// overhead and the share of the build the layer spans account for — each
// followed by serial replays of its grouping's candidate generation and
// kernel; it then measures each remaining layer with its own calls: the
// dendrogram and the annealer, the quality measure,
// the classifier, the service layer, the library appender, CSV decoding, the
// snapshot codec, and the daemon's HTTP round trip.
func probe(ctx context.Context, w workload, o options, rep *report, oc *outcome) error {
	trs := hurricanes(w.tracks, o.seed, 0)
	q, err := newQueries(o.seed, poolSize)
	if err != nil {
		return err
	}
	adds := appendTracks(o.seed)
	tr := newTracer()
	m := rep.Metrics
	defer func() { rep.Spans = tr.spans }()

	// Decomposition ≡ Pipeline.Run, traced beside untraced.
	p := traclus.New(w.options()...)
	ref, err := p.Run(ctx, trs)
	if err != nil {
		return err
	}
	want := resultFingerprint(ref)
	rep.Fingerprint = want
	oc.op(checkPinned(w, o, want))
	var untraced, cands, kernels samples
	var labels []float64
	var dec *decomposed
	var r replayed
	start := time.Now()
	for i := 0; time.Since(start) < time.Duration(o.seconds)*time.Second || i < 2; i++ {
		t0 := time.Now()
		res, err := p.Run(ctx, trs)
		untraced = append(untraced, time.Since(t0))
		if err != nil {
			return err
		}
		oc.op(sameFingerprint("Pipeline.Run", resultFingerprint(res), want))
		tr.run = i
		builds := spindex.Builds()
		if dec, err = decompose(ctx, tr, w, trs); err != nil {
			return err
		}
		if i == 0 {
			m.add("spindex.builds", float64(spindex.Builds()-builds), "count")
		}
		oc.op(sameFingerprint("traced decomposition", dec.fingerprint(), want))
		// The replays run right after the grouping they decompose, so the
		// derived labelling time compares numbers taken moments apart.
		r = replay(tr, dec)
		group := tr.durations("segclust")
		cands, kernels = append(cands, r.candTime), append(kernels, r.kernelTime)
		labels = append(labels, (group[len(group)-1] - r.candTime - r.kernelTime).Seconds())
	}
	tr.run++
	self := tr.selfTimes()
	var shares []float64
	for i, s := range tr.spans {
		if s.Name == "build" {
			shares = append(shares, 1-self[i].Seconds()/(s.End-s.Start).Seconds())
		}
	}
	m.add("bench.attributed_share", median(shares), "ratio")
	m.add("bench.trace_overhead", tr.durations("build").median()/untraced.median()-1, "ratio")
	m.add("mdl.partition_s", tr.durations("mdl").median(), "s")
	m.add("mdl.segments", float64(len(dec.items)), "count")
	m.add("spindex.build_ms", tr.durations("spindex").median()*1e3, "ms")
	m.add("segclust.group_s", tr.durations("segclust").median(), "s")
	m.add("segclust.dist_calls", float64(dec.group.DistCalls), "count")
	m.add("core.represent_s", tr.durations("core").median(), "s")

	m.add("spindex.candidates", float64(r.candidates), "count")
	m.add("spindex.candidates_s", cands.median(), "s")
	m.add("lsdist.kernel_s", kernels.median(), "s")
	m.add("lsdist.ns_per_pair", kernels.median()*1e9/float64(max(r.candidates, 1)), "ns")
	m.add("segclust.neighbors", float64(r.neighbors), "count")
	m.add("segclust.prune_ratio", float64(r.neighbors)/float64(max(r.candidates, 1)), "ratio")
	// Derived: at one CPU the grouping is the serial path, so what the two
	// replays do not cover is its union-find and labelling.
	m.add("segclust.label_s", median(labels), "s")

	// Dendrogram and annealer: auto builds made them inside the
	// decomposition; fixed builds get them here at the sweep's default
	// range, whose top (2ε) equals the auto range's.
	den := dec.den
	if !w.auto {
		tr.do("dendro", func() { den, err = dendro.FromShared(ctx, dec.shared, autoHi, dec.ccfg.Workers) })
		if err != nil {
			return err
		}
		tr.do("params", func() {
			an := params.AnnealOptions{Workers: dec.ccfg.Workers, OnEval: func() { dec.evals++ }}
			_, err = params.EstimateEpsDendroCtx(ctx, den, autoLo, autoHi, an)
		})
		if err != nil {
			return err
		}
	}
	var cut *segclust.Result
	cutS, err := timeReps(tr, "dendro.cut", 5, func() (err error) {
		cut, err = den.CutAt(dec.ccfg.Eps, dec.ccfg.MinLns, 0)
		return err
	})
	if err != nil {
		return err
	}
	oc.op(sameLabels("dendrogram cut", cut, dec.group))
	m.add("dendro.build_s", tr.durations("dendro").median(), "s")
	m.add("dendro.edges", float64(den.Edges()), "count")
	m.add("dendro.dist_calls", float64(den.DistCalls()), "count")
	m.add("dendro.cut_ms", cutS*1e3, "ms")
	m.add("params.estimate_s", tr.durations("params").median(), "s")
	m.add("params.evals", float64(dec.evals), "count")
	den, dec.den = nil, nil
	runtime.GC()

	// Quality: the per-cluster SSE pass every model build and append pays,
	// and one sweep step.
	tr.do("quality.sse", func() { ref.ClusterStats() })
	pairs := 0
	for _, c := range ref.Clusters {
		pairs += len(c.Segments) * len(c.Segments)
	}
	stepS, _ := timeReps(tr, "quality.measure", 3, func() error {
		quality.Measure(dec.items, dec.group, dec.ccfg.Distance, dec.ccfg.Workers)
		return nil
	})
	m.add("quality.sse_s", tr.durations("quality.sse").median(), "s")
	m.add("quality.pairs", float64(pairs), "count")
	m.add("quality.sweep_step_ms", stepS*1e3, "ms")

	// Classifier: index construction over the representatives, then the
	// nearest-cluster query per trajectory.
	idxS, err := timeReps(tr, "classify.index", 3, func() error {
		_, err := traclus.NewClassifier(ref)
		return err
	})
	if err != nil {
		return err
	}
	cls, err := ref.Classifier()
	if err != nil {
		return err
	}
	queried := 0
	qd := tr.do("classify.query", func() {
		for _, batch := range q.trs[:32] {
			for _, t := range batch {
				_, _, _ = cls.Classify(t) // a too-short query is answered with an error, which still costs the search
				queried++
			}
		}
	})
	m.add("classify.index_build_ms", idxS*1e3, "ms")
	m.add("classify.query_us", qd.Seconds()*1e6/float64(queried), "us")
	dec = nil
	runtime.GC()

	// Service layer: a model build, appends, and the snapshot codec on the
	// built model.
	var est *service.EstimateRange
	if w.auto {
		est = &service.EstimateRange{Lo: autoLo, Hi: autoHi}
	}
	var sm *service.Model
	tr.do("service.build", func() { sm, err = service.BuildCtx(ctx, "probe", trs, w.config(), est, nil) })
	if err != nil {
		return err
	}
	oc.op(sameFingerprint("service build", resultFingerprint(sm.Result()), want))
	sn, err := sm.Snapshot()
	if err != nil {
		return err
	}
	var data []byte
	encS, err := timeReps(tr, "snapshot.encode", 3, func() (err error) {
		data, err = snapshot.Encode(sn)
		return err
	})
	if err != nil {
		return err
	}
	decS, err := timeReps(tr, "snapshot.decode", 3, func() error {
		_, err := snapshot.Decode(data)
		return err
	})
	if err != nil {
		return err
	}
	m.add("snapshot.encode_ms", encS*1e3, "ms")
	m.add("snapshot.decode_ms", decS*1e3, "ms")
	m.add("snapshot.bytes", float64(len(data)), "bytes")
	head := sm
	for k := 0; k < 3; k++ {
		tr.do("service.append", func() { head, err = head.Append(ctx, adds[k:k+1]) })
		if err != nil {
			return err
		}
		if head.Epoch() != int64(k+1) {
			err = fmt.Errorf("service append %d: epoch %d, want %d", k, head.Epoch(), k+1)
		}
		oc.op(err)
	}
	m.add("service.append_ms", tr.durations("service.append").median()*1e3, "ms")

	// The library appender the service wraps, without the service's
	// per-epoch statistics.
	var ap *traclus.Appender
	tr.do("appender.build", func() { ap, err = traclus.New(w.options()...).NewAppender(ctx, trs) })
	if err != nil {
		return err
	}
	grows := spindex.Grows()
	for k := 0; k < 3; k++ {
		tr.do("segclust.append", func() { _, err = ap.Append(ctx, adds[k:k+1]) })
		if err != nil {
			return err
		}
		if k == 0 {
			m.add("spindex.grows", float64(spindex.Grows()-grows), "count")
		}
	}
	oc.op(sameFingerprint("library appends", resultFingerprint(ap.Result()), resultFingerprint(head.Result())))
	m.add("segclust.append_ms", tr.durations("segclust.append").median()*1e3, "ms")
	ap, head, sm = nil, nil, nil
	runtime.GC()

	// CSV decoding of one classify body and of the whole build upload.
	var bodyLat samples
	for _, body := range q.bodies {
		t0 := time.Now()
		_, err := trackio.ReadCSV(bytes.NewReader(body))
		bodyLat = append(bodyLat, time.Since(t0))
		if err != nil {
			return err
		}
	}
	upload, err := csvBody(trs)
	if err != nil {
		return err
	}
	uploadS, err := timeReps(tr, "trackio.upload", 3, func() error {
		_, err := trackio.ReadCSV(bytes.NewReader(upload))
		return err
	})
	if err != nil {
		return err
	}
	m.add("trackio.decode_us", bodyLat.median()*1e6, "us")
	m.add("trackio.upload_decode_ms", uploadS*1e3, "ms")

	// The daemon: the HTTP floor, and classify over HTTP beside the same
	// model decoded in-process.
	healthMS, batchMS, overheadMS, err := probeDaemon(ctx, o, tr, q, data, oc)
	if err != nil {
		return err
	}
	m.add("traclusd.healthz_p50_ms", healthMS, "ms")
	m.add("service.classify_batch_ms", batchMS, "ms")
	m.add("traclusd.http_overhead_ms", overheadMS, "ms")

	for name, d := range tr.selfMedians() {
		rep.Extras.add("span."+name+".self_ms", d.Seconds()*1e3, "ms")
	}
	return nil
}

// probeDaemon imports the snapshot into a fresh daemon and measures the
// HTTP floor (healthz) and, body by body, the in-process ClassifyBatch of
// the model decoded from the snapshot beside the same body classified over
// HTTP, whose answers must equal the in-process ones bit for bit. It returns
// medians in ms: healthz, ClassifyBatch, and HTTP minus in-process of each
// pair, which were measured moments apart.
func probeDaemon(ctx context.Context, o options, tr *tracer, q *queries, snap []byte, oc *outcome) (healthMS, batchMS, overheadMS float64, err error) {
	work, err := os.MkdirTemp("", "traclusbench-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(work)
	d, err := startDaemon(ctx, o.traclusd, work)
	if err != nil {
		return 0, 0, 0, err
	}
	defer d.stop()
	c := newClient(d.base)
	if _, err := c.call(ctx, http.MethodPut, "/v1/models/"+modelName+"/snapshot", snap, http.StatusOK, nil); err != nil {
		return 0, 0, 0, err
	}
	local, err := service.DecodeModel(snap)
	if err != nil {
		return 0, 0, 0, err
	}
	health, err := timeReps(tr, "traclusd.healthz", 200, func() error {
		_, err := c.call(ctx, http.MethodGet, "/v1/healthz", nil, http.StatusOK, nil)
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var batch samples
	var overhead []float64
	for i := 0; i < 200 && ctx.Err() == nil; i++ {
		k := i % len(q.bodies)
		t0 := time.Now()
		want := local.ClassifyBatch(ctx, q.trs[k], 0)
		inProcess := time.Since(t0)
		t0 = time.Now()
		data, err := c.call(ctx, http.MethodPost, "/v1/models/"+modelName+"/classify", q.bodies[k], http.StatusOK, nil)
		overHTTP := time.Since(t0)
		var resp classifyResponse
		if err == nil {
			err = json.Unmarshal(data, &resp)
		}
		if err == nil {
			err = checkAnswers(resp, q.trs[k], want)
		}
		oc.op(err)
		batch = append(batch, inProcess)
		overhead = append(overhead, (overHTTP-inProcess).Seconds()*1e3)
	}
	return health * 1e3, batch.median() * 1e3, median(overhead), ctx.Err()
}
