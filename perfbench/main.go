// Command perfbench is the repository's benchmark. It runs one named
// workload, generated from a seed, checks every output against recorded
// expectations or an in-process reference run, and prints the end-to-end
// metrics — or, with --trace 1, the per-layer metrics — as the last line
// of standard output. README.md gives the workloads and the layer map.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload paper16-policies --seed 1 --seconds 40 --trace 0
//
// From this directory:
//
//	go run . -record expect.json            # re-record the expected outputs
//	go run . -compare old.jsonl new.jsonl   # before/after of two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"finereg/internal/runner"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; every workload
// reports each of them. A request is what the user waits for: one HTTP
// job on serve-mixed, one simulation on paper16-policies, and the whole
// figure on fig13-quick.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_instr_per_s", "1/s"},
	{"sim_cycles_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, grouped by the internal package
// they describe. A layer a workload does not pass through reports 0.
var perLayer = []metricDef{
	{"runner.job_ms_p50", "ms"},
	{"runner.job_ms_max", "ms"},
	{"runner.worker_busy_frac", "ratio"},
	{"runner.tail_s", "s"},
	{"runner.cache_hit_frac", "ratio"},
	{"regfile.allow_issue.calls", "count"},
	{"regfile.allow_issue.denied_frac", "ratio"},
	{"regfile.hooks_ms", "ms"},
	{"regfile.cpu_share", "ratio"},
	{"core.hooks_ms", "ms"},
	{"core.cpu_share", "ratio"},
	{"core.pcrf_spill_regs", "count"},
	{"core.pcrf_fill_regs", "count"},
	{"core.depletion_events", "count"},
	{"sm.cpu_share", "ratio"},
	{"sm.instructions", "count"},
	{"sm.cta_switches", "count"},
	{"sm.stall.issue_frac", "ratio"},
	{"sm.stall.memory_frac", "ratio"},
	{"sm.stall.scoreboard_frac", "ratio"},
	{"sm.stall.reg_depletion_frac", "ratio"},
	{"gpu.run_self_ms", "ms"},
	{"gpu.cpu_share", "ratio"},
	{"mem.cpu_share", "ratio"},
	{"mem.l1_miss_rate", "ratio"},
	{"mem.l2_accesses", "count"},
	{"mem.l2_miss_rate", "ratio"},
	{"mem.dram_bytes", "B"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.finish_lag_ms_p50", "ms"},
	{"serve.coalesced_frac", "ratio"},
	{"serve.shed_total", "count"},
	{"serve.rejected_400", "count"},
	{"workload.load_ms_p50", "ms"},
	{"isa.assemble_us_p50", "us"},
	{"liveness.analyze_us_p50", "us"},
	{"host.alloc_mb", "MB"},
	{"host.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// setupReps is how many times each run sets its workload up; setup_s is
// the median. A set-up takes well under a second, so one is at the mercy
// of the host's speed in that instant; the median of many is steadier.
const setupReps = 15

// options are one run's arguments.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	tmpDir  string
}

// report is what a workload measured and checked.
type report struct {
	setup  []float64 // seconds per set-up repetition
	units  []unit    // untraced units of work, in order
	latMS  []float64 // per-request latency of the untraced units
	checks tally
	info   map[string]any     // figures recorded beside the metrics
	layers map[string]float64 // per-layer metrics (traced runs)
}

// unit is one measured repetition of a workload's unit of work.
type unit struct {
	secs          float64 // on the workload's clock (see inproc.cpuClock)
	wall          float64 // seconds on the wall clock
	instr, cycles int64   // simulated, over the unit's fresh simulations
	requests      int
}

var workloads = map[string]func(options, *expectations) (*report, error){
	"fig13-quick":      runFig13,
	"paper16-policies": runPaper16,
	"serve-mixed":      runServeMixed,
}

func main() {
	var (
		o        options
		workload = flag.String("workload", "", "fig13-quick, paper16-policies or serve-mixed")
		traced   = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics")
		tmp      = flag.String("tmp", os.TempDir(), "directory for the traced run's CPU profile")
		rec      = flag.String("record", "", "re-record the expected outputs into this file and exit")
		compare  = flag.Bool("compare", false, "compare two result files (old new) and exit")
		bounds   = flag.String("bounds", "../BENCHMARK.json", "metric bounds for -compare")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 40, "least measured time; whole units of work are measured")
	flag.Parse()

	switch {
	case *rec != "":
		if err := record(*rec); err != nil {
			fail(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("perfbench: -compare takes two result files"))
		}
		if err := runCompare(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1)); err != nil {
			fail(err)
		}
		return
	}

	run, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("perfbench: unknown workload %q", *workload))
	}
	o.trace = *traced == 1
	var err error
	if o.tmpDir, err = profileDir(*tmp); err != nil {
		fail(err)
	}
	exp, err := loadExpectations()
	if err != nil {
		fail(err)
	}
	started := time.Now()
	rep, err := run(o, exp)
	if err != nil {
		fail(err)
	}
	for _, n := range rep.checks.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	if err := emit(*workload, o, started, rep); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// endToEndValues computes the end-to-end metrics of a report. Rates are
// medians over the measured units; latencies are taken over every request
// of the run.
func endToEndValues(rep *report) map[string]float64 {
	var instr, cycles, reqs, wallReqs []float64
	for _, u := range rep.units {
		instr = append(instr, float64(u.instr)/u.secs)
		cycles = append(cycles, float64(u.cycles)/u.secs)
		reqs = append(reqs, float64(u.requests)/u.secs)
		wallReqs = append(wallReqs, float64(u.requests)/u.wall)
	}
	// On a CPU-clock workload this shows what the wall clock gave.
	rep.info["req_per_wall_s"] = median(wallReqs)
	// fig13-quick has one request per run, so its "p99" is that request's
	// latency, reported as percentile 100.
	p99, used := tailOrMax(rep.latMS, 99)
	rep.info["req_samples"] = len(rep.latMS)
	rep.info["req_p99_percentile_used"] = used
	return map[string]float64{
		"setup_s":          median(rep.setup),
		"sim_instr_per_s":  median(instr),
		"sim_cycles_per_s": median(cycles),
		"req_per_s":        median(reqs),
		"req_p50_ms":       median(rep.latMS),
		"req_p99_ms":       p99,
		"peak_rss_mb":      peakRSSMB(),
	}
}

// resultRecord is the full record of one run, printed before the result
// line; -compare reads these.
type resultRecord struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Trace          bool               `json:"trace"`
	Units          int                `json:"units"`
	SetupReps      int                `json:"setup_reps"`
	StartedAt      time.Time          `json:"started_at"`
	Host           string             `json:"host"`
	NumCPU         int                `json:"num_cpu"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	GoVersion      string             `json:"go_version"`
	Commit         string             `json:"commit"`
	SimFingerprint string             `json:"sim_fingerprint"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Metrics        map[string]float64 `json:"metrics"`
	Info           map[string]any     `json:"info"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the run's record and, last, its result line.
func emit(workload string, o options, started time.Time, rep *report) error {
	all := endToEndValues(rep)
	defs := endToEnd
	if o.trace {
		for k, v := range rep.layers {
			all[k] = v
		}
		defs = perLayer
	}
	rep.info["error_rate"] = ratio(float64(rep.checks.failed), float64(rep.checks.attempted))
	host, _ := os.Hostname()
	rec := resultRecord{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Units: len(rep.units), SetupReps: len(rep.setup), StartedAt: started,
		Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), SimFingerprint: runner.SimFingerprint,
		Attempted: rep.checks.attempted, Failed: rep.checks.failed,
		Metrics: all, Info: rep.info,
	}
	line := resultLine{
		Correct:   rep.checks.failed == 0 && rep.checks.attempted > 0,
		Attempted: rep.checks.attempted,
		Failed:    rep.checks.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := all[d.name]
		if !ok {
			return fmt.Errorf("perfbench: %s reported no %s", workload, d.name)
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(line)
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
