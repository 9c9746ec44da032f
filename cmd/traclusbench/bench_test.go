package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	traclus "repro"
	"repro/internal/service"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the benchmark to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke builds the benchmark and the daemon, runs every workload at a
// tiny size, and a traced run of both library workloads, and checks the
// checks passed and the output has exactly the schema BENCHMARK.json
// declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and starts daemons")
	}
	var spec benchmarkSpec
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}

	dir := t.TempDir()
	bench, daemon := filepath.Join(dir, "traclusbench"), filepath.Join(dir, "traclusd")
	for pkg, out := range map[string]string{".": bench, "repro/cmd/traclusd": daemon} {
		if out, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	runBench := func(args ...string) (line, []report) {
		t.Helper()
		file := filepath.Join(dir, "report.json")
		cmd := exec.Command(bench, append([]string{"-traclusd", daemon, "-tracks", "120", "-out", file}, args...)...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("traclusbench %v: %v\n%s", args, err, stdout.String())
		}
		var last string
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			last = sc.Text()
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(last), &keys); err != nil {
			t.Fatalf("last line %q: %v", last, err)
		}
		var got []string
		for k := range keys {
			got = append(got, k)
		}
		sort.Strings(got)
		if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
			t.Fatalf("last line keys %v", got)
		}
		var l line
		if err := json.Unmarshal([]byte(last), &l); err != nil {
			t.Fatal(err)
		}
		if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
			t.Fatalf("checks failed: %s\n%s", last, stdout.String())
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var reps []report
		if err := json.Unmarshal(data, &reps); err != nil {
			t.Fatal(err)
		}
		return l, reps
	}
	wantMetrics := func(r report, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(r.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", r.Workload, len(r.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", r.Workload, m.Name, got, m.Unit)
			}
		}
		if r.Env.CPUs < 1 || r.Env.GOMAXPROCS < 1 || r.Env.GoVersion == "" {
			t.Errorf("%s: environment not recorded: %+v", r.Workload, r.Env)
		}
	}

	_, reps := runBench("-seconds", "1")
	if len(reps) != len(workloads) {
		t.Fatalf("%d reports for %d workloads", len(reps), len(workloads))
	}
	for _, r := range reps {
		wantMetrics(r, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if r.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", r.Workload, m.Name, r.Metrics[m.Name].Value)
			}
		}
	}
	for _, w := range []string{"build-fixed", "build-auto"} {
		_, reps := runBench("-workload", w, "-seconds", "1", "-trace", "1")
		wantMetrics(reps[0], spec.PerLayer)
		if len(reps[0].Spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w)
		}
	}
}

// TestCheckAnswers pins that a classify answer differing from the
// in-process one in any bit fails the check.
func TestCheckAnswers(t *testing.T) {
	trs := []traclus.Trajectory{{ID: 7}}
	want := []service.Assignment{{TrajID: 7, Cluster: 2, Distance: 1.5}}
	ok := classifyResponse{Results: []service.Assignment{{TrajID: 7, Cluster: 2, Distance: 1.5}}}
	if err := checkAnswers(ok, trs, want); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	for _, bad := range []service.Assignment{
		{TrajID: 7, Cluster: 2, Distance: 1.5000000000000002},
		{TrajID: 7, Cluster: 1, Distance: 1.5},
		{TrajID: 8, Cluster: 2, Distance: 1.5},
		{TrajID: 7, Cluster: -1, Err: "too short"},
	} {
		if err := checkAnswers(classifyResponse{Results: []service.Assignment{bad}}, trs, want); err == nil {
			t.Errorf("answer %+v accepted", bad)
		}
	}
}
