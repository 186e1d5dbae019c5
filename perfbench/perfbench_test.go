package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
)

// quickJob is a small quick-scale job for tests.
func quickJob(t *testing.T, bench string, spec runner.PolicySpec) *runner.Job {
	t.Helper()
	p, err := kernels.ProfileByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	return &runner.Job{Cfg: gpu.Default().Scale(4), Profile: p, Grid: p.GridCTAs / 4, Policy: spec}
}

func TestCorruptedExpectationFails(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := paper16Jobs()
	if err != nil {
		t.Fatal(err)
	}
	b := (&runner.Engine{Jobs: 1}).Run(jobs[:1])
	var ok tally
	checkJobs(&ok, exp, "paper16-policies", b)
	if ok.attempted != 1 || ok.failed != 0 {
		t.Fatalf("recorded expectation: attempted %d failed %d (%v), want 1 and 0", ok.attempted, ok.failed, ok.notes)
	}

	corrupt := &expectations{Digests: map[string]string{}}
	for k, v := range exp.Digests {
		corrupt.Digests[k] = v
	}
	label := jobLabel("paper16-policies", jobs[0])
	corrupt.Digests[label] = "0000000000000000"
	var bad tally
	checkJobs(&bad, corrupt, "paper16-policies", b)
	if bad.failed != 1 {
		t.Fatalf("corrupted expectation for %s: %d failures, want 1", label, bad.failed)
	}
}

func TestMain(m *testing.M) {
	if err := loadSaxpy(filepath.Join("..", saxpyPath)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestMalformedProgramIsExpected(t *testing.T) {
	s, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	w := &window{}
	m := &mixClient{c: newClient(s.base), mu: &sync.Mutex{}, w: w, plan: newPlan(1)}
	defer m.c.HTTP.CloseIdleConnections()
	broken := 0
	for mix[broken] != kindMalformed {
		broken++
	}
	const n = 8 // two of each broken-program kind
	for range n {
		m.pos = broken
		if err := m.step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if w.checks.attempted != n || w.checks.failed != 0 || w.rejected != n {
		t.Fatalf("attempted %d, failed %d (%v), rejected %d; want %d, 0, %d",
			w.checks.attempted, w.checks.failed, w.checks.notes, w.rejected, n, n)
	}
}

func TestFreshAndResubmittedJobsMatchInProcess(t *testing.T) {
	w, err := runWindow(context.Background(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.fresh) == 0 || w.checks.failed != 0 {
		t.Fatalf("%d fresh jobs, %d failures: %v", len(w.fresh), w.checks.failed, w.checks.notes)
	}
	var tl tally
	if _, err := verify(&tl, w.fresh, nil); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("served results differ from in-process runs: %v", tl.notes)
	}
	// A changed byte must be caught.
	w.fresh[0].result = bytes.Replace(w.fresh[0].result, []byte(`"Cycles":`), []byte(`"Cycles":1`), 1)
	tl = tally{}
	if _, err := verify(&tl, w.fresh[:1], nil); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 1 {
		t.Fatalf("a corrupted served result was not caught")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for n := 0; n <= 3000; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		for _, p := range []float64{50, 90, 99, 99.9} {
			v, used, ok := tailPercentile(xs, p)
			if n <= minBeyond {
				if ok {
					t.Fatalf("n=%d p=%v: reported %v with fewer than %d samples", n, p, v, minBeyond+1)
				}
				continue
			}
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if !ok || beyond < minBeyond || used > p+1e-9 {
				t.Fatalf("n=%d p=%v: value %v used p%v with %d beyond (ok=%v)", n, p, v, used, beyond, ok)
			}
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, used, _ := tailPercentile(xs, 99); used != 99 {
		t.Fatalf("1000 samples should support p99, used p%v", used)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) in CPython.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Fatalf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
			}
		}
	}
}

func TestWrappedPolicyLeavesMetricsIdentical(t *testing.T) {
	specs := []runner.PolicySpec{
		runner.Baseline(), runner.VirtualThread(), runner.RegDRAM(4),
		runner.VTRegMutex(0.15), runner.FineRegDefault(),
	}
	var plain []*runner.Job
	for _, s := range specs {
		plain = append(plain, quickJob(t, "ST", s)) // ST's RegMutex runs deny issue
	}
	hooks := &hookSet{}
	wrapped, err := hooks.wrapJobs(plain)
	if err != nil {
		t.Fatal(err)
	}
	eng := &runner.Engine{Jobs: 2}
	a, b := eng.Run(plain), eng.Run(wrapped)
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		x, _ := json.Marshal(a.Results[i])
		y, _ := json.Marshal(b.Results[i])
		if !bytes.Equal(x, y) {
			t.Fatalf("%s: wrapped policy changed the result\nplain   %s\nwrapped %s", specs[i].Name(), x, y)
		}
	}
	l := hooks.layers()
	if l["regfile.allow_issue.calls"] == 0 || l["regfile.allow_issue.denied_frac"] == 0 || l["core.hooks_ms"] == 0 {
		t.Fatalf("hook counters did not move: %v", l)
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 1s, Total samples = 60ms ( 6.00%)
-----------+-------------------------------------------------------
      30ms   runtime.mapaccess1_fast64
             finereg/internal/regfile.(*RegMutex).AllowIssue
             main.(*timedPolicy).AllowIssue
             finereg/internal/sm.(*SM).issueReady
-----------+-------------------------------------------------------
      20ms   finereg/internal/sm.(*SM).pick (inline)
             finereg/internal/gpu.(*GPU).Run
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"regfile": 0.03, "sm": 0.02, "other": 0.01}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Fatalf("CPU seconds by module %v, want %v", got, want)
		}
	}
}

func TestRunnerTail(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	// Two workers: both busy until 4s, then one job runs alone to 10s.
	s := &spanSink{begin: at(0), end: at(10), spans: []span{
		{id: 0, start: at(0), end: at(2)}, {id: 1, start: at(0), end: at(10)}, {id: 2, start: at(2), end: at(4)},
	}}
	l := runnerLayer(s, 2)
	if l["runner.tail_s"] != 6 || l["runner.job_ms_max"] != 10000 {
		t.Fatalf("runner layer %v, want a 6 s tail and a 10 s longest job", l)
	}
	if got := l["runner.worker_busy_frac"]; math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("busy fraction %v, want 0.7", got)
	}
}

func TestCompareFlagsRegressionAndGain(t *testing.T) {
	mk := func(v []float64, start int) []resultRecord {
		var out []resultRecord
		for i, x := range v {
			out = append(out, resultRecord{
				Metrics:   map[string]float64{"m": x},
				StartedAt: time.Unix(int64(2*i+(start+i)%2), 0),
			})
		}
		return out
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	var faster, slower []float64
	for _, x := range base {
		faster = append(faster, x*0.8)
		slower = append(slower, x*1.3)
	}
	old := mk(base, 0)
	if v := judge(old, mk(faster, 1), "m", true, 0.1); !v.gain || v.regression || !v.alternating {
		t.Fatalf("a 20%% faster change: %+v, want a gain", v)
	}
	if v := judge(old, mk(slower, 1), "m", true, 0.1); !v.regression || v.gain {
		t.Fatalf("a 30%% slower change: %+v, want a regression", v)
	}
	if v := judge(old, mk(faster, 0), "m", true, 0.1); v.gain {
		t.Fatalf("pairs that do not alternate must not claim a gain: %+v", v)
	}
	// Faster but failing its checks: no gain, and the comparison fails.
	wrong := mk(faster, 1)
	for i := range wrong {
		wrong[i].Workload, wrong[i].Attempted, wrong[i].Failed = "w", 10, 1
	}
	for i := range old {
		old[i].Workload, old[i].Attempted = "w", 10
	}
	if v := judge(old, wrong, "m", true, 0.1); v.gain || !v.moreFailures {
		t.Fatalf("a faster change that fails its checks: %+v, want no gain", v)
	}
	dir := t.TempDir()
	write := func(name string, recs []resultRecord) string {
		var buf bytes.Buffer
		for _, r := range recs {
			if err := json.NewEncoder(&buf).Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := write("bounds.json", nil)
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[{"name":"m","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runCompare(&out, bounds, write("old.jsonl", old), write("new.jsonl", wrong))
	if err == nil || !strings.Contains(out.String(), "failed 1 of 10") || strings.Contains(out.String(), "  gain") {
		t.Fatalf("comparing against failing runs: err %v, output\n%s", err, out.String())
	}
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		E []struct{ Name, Unit string } `json:"end_to_end"`
		P []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{b.E, endToEnd}, {b.P, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.file), len(c.code))
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Fatalf("BENCHMARK.json metric %d is %s (%s), the benchmark reports %s (%s)",
					i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
