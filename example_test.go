package traclus_test

import (
	"context"
	"fmt"
	"reflect"

	traclus "repro"
)

// corridorExample builds the five-trajectory corridor scene shared by the
// runnable examples: a common horizontal corridor that fans out at the end.
func corridorExample() []traclus.Trajectory {
	var trs []traclus.Trajectory
	for i := 0; i < 5; i++ {
		dy := float64(i) * 2
		tail := float64(i-2) * 50
		trs = append(trs, traclus.NewTrajectory(i, []traclus.Point{
			traclus.Pt(0, 100+dy),
			traclus.Pt(100, 100+dy),
			traclus.Pt(200, 100+dy),
			traclus.Pt(300, 100+dy),
			traclus.Pt(400, 100+dy+tail),
		}))
	}
	return trs
}

// ExamplePipeline is the primary entrypoint: a Pipeline built from
// functional options, run under a context. Cancelling the context would
// abort the clustering within one work item and return ctx.Err().
func ExamplePipeline() {
	p := traclus.New(traclus.WithConfig(traclus.Config{Eps: 25, MinLns: 4}))
	res, err := p.Run(context.Background(), corridorExample())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("clusters: %d\n", len(res.Clusters))
	fmt.Printf("participants: %v\n", res.Clusters[0].Trajectories)
	// Output:
	// clusters: 1
	// participants: [0 1 2 3 4]
}

// ExamplePipeline_progress installs a progress hook. The hook is invoked
// serially with phases in pipeline order and non-decreasing fractions; each
// phase opens at fraction 0 and closes with exactly one fraction-1 event,
// which is what this example prints (intermediate events are throttled and
// input-dependent, so it reports only the completions).
func ExamplePipeline_progress() {
	p := traclus.New(
		traclus.WithConfig(traclus.Config{Eps: 25, MinLns: 4}),
		traclus.WithProgress(func(ev traclus.ProgressEvent) {
			if ev.Fraction == 1 {
				fmt.Printf("%s done\n", ev.Phase)
			}
		}),
	)
	if _, err := p.Run(context.Background(), corridorExample()); err != nil {
		fmt.Println(err)
		return
	}
	// Output:
	// partition done
	// group done
	// represent done
}

// ExamplePipeline_Run clusters five trajectories that share a horizontal
// corridor before fanning out, and prints the discovered common
// sub-trajectory's participants.
func ExamplePipeline_Run() {
	var trs []traclus.Trajectory
	for i := 0; i < 5; i++ {
		dy := float64(i) * 2
		tail := float64(i-2) * 50
		trs = append(trs, traclus.NewTrajectory(i, []traclus.Point{
			traclus.Pt(0, 100+dy),
			traclus.Pt(100, 100+dy),
			traclus.Pt(200, 100+dy),
			traclus.Pt(300, 100+dy),
			traclus.Pt(400, 100+dy+tail),
		}))
	}
	p := traclus.New(traclus.WithConfig(traclus.Config{Eps: 25, MinLns: 4}))
	res, err := p.Run(context.Background(), trs)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("clusters: %d\n", len(res.Clusters))
	fmt.Printf("participants: %v\n", res.Clusters[0].Trajectories)
	// Output:
	// clusters: 1
	// participants: [0 1 2 3 4]
}

// ExampleConfig_workers shows that Workers is purely a throughput knob:
// running the pipeline serially (Workers: 1) and on many goroutines
// (Workers: 8) yields bit-identical clusters, representatives included.
func ExampleConfig_workers() {
	var trs []traclus.Trajectory
	for i := 0; i < 8; i++ {
		dy := float64(i) * 2
		trs = append(trs, traclus.NewTrajectory(i, []traclus.Point{
			traclus.Pt(0, 100+dy),
			traclus.Pt(120, 100+dy),
			traclus.Pt(240, 100+dy),
			traclus.Pt(360, 100+dy),
			traclus.Pt(480, 100+dy+float64(i-4)*40),
		}))
	}
	ctx := context.Background()
	serial, err := traclus.New(traclus.WithConfig(traclus.Config{Eps: 25, MinLns: 5, Workers: 1})).Run(ctx, trs)
	if err != nil {
		fmt.Println(err)
		return
	}
	parallel, err := traclus.New(traclus.WithConfig(traclus.Config{Eps: 25, MinLns: 5, Workers: 8})).Run(ctx, trs)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("clusters: %d\n", len(parallel.Clusters))
	fmt.Printf("parallel identical to serial: %v\n", reflect.DeepEqual(serial.Clusters, parallel.Clusters))
	// Output:
	// clusters: 1
	// parallel identical to serial: true
}

// ExamplePartition shows phase one alone: the MDL-chosen characteristic
// points of a single trajectory with one sharp turn.
func ExamplePartition() {
	tr := traclus.NewTrajectory(0, []traclus.Point{
		traclus.Pt(0, 0), traclus.Pt(100, 0), traclus.Pt(200, 0),
		traclus.Pt(200, 100), traclus.Pt(200, 200),
	})
	fmt.Println(traclus.Partition(tr, 0))
	// Output:
	// [0 2 4]
}

// ExampleDistance evaluates the three-component segment distance on the
// Appendix A configuration: parallel same-direction (200) vs the same
// location traversed in the opposite direction (400).
func ExampleDistance() {
	l1 := traclus.Segment{Start: traclus.Pt(0, 0), End: traclus.Pt(200, 0)}
	l2 := traclus.Segment{Start: traclus.Pt(100, 100), End: traclus.Pt(300, 100)}
	l3 := traclus.Segment{Start: traclus.Pt(300, 100), End: traclus.Pt(100, 100)}
	fmt.Printf("%.0f %.0f\n", traclus.Distance(l1, l2), traclus.Distance(l1, l3))
	// Output:
	// 200 400
}
