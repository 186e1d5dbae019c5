package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"finereg/internal/experiments"
	"finereg/internal/gpu"
	"finereg/internal/isa"
	"finereg/internal/kernels"
	"finereg/internal/liveness"
	"finereg/internal/runner"
	"finereg/internal/stats"
	"finereg/internal/workload"
)

// paperGeomean is the paper's FineReg over Baseline IPC geomean; the
// simulator's own figure is recorded beside it. The model is otherwise
// unvalidated against hardware.
const paperGeomean = 1.328

// inproc is an in-process workload: a fixed job list run on a
// runner.Engine, one unit of work per batch.
type inproc struct {
	name    string
	workers int
	// wholeUnit makes the unit itself the request: a user of the
	// reproduction waits for the whole figure, not for one of its jobs.
	wholeUnit bool
	// build constructs the workload's jobs.
	build func() ([]*runner.Job, error)
	// order returns the jobs in the order unit u runs them (nil: as built).
	order func(jobs []*runner.Job, seed uint64, u int) []*runner.Job
	// check adds workload-specific output checks over a unit's results and
	// returns the FineReg/Baseline IPC geomean they show.
	check func(t *tally, exp *expectations, jobs []*runner.Job, res []*runner.Result) float64
	// stalls picks the traced units' jobs that carry a stall breakdown.
	stalls func(*runner.Job) bool
}

// runFig13 is the quick-scale Figure 13 reproduction: 198 jobs on two
// workers, no cache. Its input is fixed by the paper's sweep, so the seed
// changes nothing; one unit is the whole sweep.
func runFig13(o options, exp *expectations) (*report, error) {
	var cells []sweepCell
	return inproc{
		name:      "fig13-quick",
		workers:   2,
		wholeUnit: true,
		build: func() ([]*runner.Job, error) {
			jobs, c, err := fig13Jobs()
			cells = c
			return jobs, err
		},
		check: func(t *tally, exp *expectations, _ []*runner.Job, res []*runner.Result) float64 {
			for _, r := range res {
				if r == nil {
					return 0 // the failed job is already counted
				}
			}
			f := figure13(cells, res)
			t.attempted++
			if got := f.Render(); got != exp.Fig13Table {
				t.fail("fig13-quick: rendered Figure 13 differs from the recorded table:\n%s", got)
			}
			return f.Mean[experiments.CfgFineReg][0]
		},
		// Stall attribution on every job would make the traced sweep half
		// again as long; the Baseline and FineReg jobs are the pair the
		// headline compares.
		stalls: func(j *runner.Job) bool {
			return j.Policy.Kind == "baseline" || j.Policy.Kind == "finereg-default"
		},
	}.run(o, exp)
}

// runPaper16 runs one paper-scale simulation per bench and policy, one at
// a time. One unit is all 20; the seed shuffles their order in each unit.
func runPaper16(o options, exp *expectations) (*report, error) {
	return inproc{
		name:    "paper16-policies",
		workers: 1,
		build:   paper16Jobs,
		order: func(jobs []*runner.Job, seed uint64, u int) []*runner.Job {
			jobs = append([]*runner.Job(nil), jobs...)
			r := rand.New(rand.NewPCG(seed, uint64(u)))
			r.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
			return jobs
		},
		check: func(_ *tally, _ *expectations, jobs []*runner.Job, res []*runner.Result) float64 {
			ipc := map[string]map[string]float64{}
			for i, j := range jobs {
				if res[i] == nil {
					return 0
				}
				if ipc[j.Profile.Abbrev] == nil {
					ipc[j.Profile.Abbrev] = map[string]float64{}
				}
				ipc[j.Profile.Abbrev][j.Policy.Kind] = res[i].Metrics.IPC()
			}
			var ratios []float64
			for _, b := range paper16Benches {
				ratios = append(ratios, stats.Speedup(ipc[b]["finereg-default"], ipc[b]["baseline"]))
			}
			return stats.Geomean(ratios)
		},
		stalls: func(*runner.Job) bool { return true },
	}.run(o, exp)
}

// warmJob is the set-up warm-up: a small quick-scale simulation that
// touches every layer of a run once.
func warmJob() (*runner.Job, error) {
	p, err := kernels.ProfileByName("CS")
	if err != nil {
		return nil, err
	}
	return &runner.Job{Cfg: gpu.Default().Scale(4), Profile: p, Grid: p.GridCTAs / 4, Policy: runner.FineRegDefault()}, nil
}

// cpuClock reports whether the workload's timings are taken on the
// process's CPU clock rather than the wall clock. With one worker the
// process runs one simulation at a time, so its CPU time is that
// simulation's cost (and the collector's), and unlike the wall clock it
// leaves out the time a shared virtual machine loses to other guests,
// which slowed whole 40 s runs by up to a third on a shared 2-vCPU VM.
// With several workers the wall clock is kept: the wait for
// the whole batch, the runner's tail included, is what is measured.
func (w inproc) cpuClock() bool { return w.workers == 1 }

// setup builds the jobs and their kernels, constructs the engine and runs
// the warm-up job.
func (w inproc) setup(sink *spanSink) (*runner.Engine, []*runner.Job, error) {
	jobs, err := w.build()
	if err != nil {
		return nil, nil, err
	}
	built := map[string]bool{}
	for _, j := range jobs {
		key := fmt.Sprintf("%s/%d/%d", j.Profile.Abbrev, j.Grid, j.Profile.FootprintKB)
		if built[key] {
			continue
		}
		built[key] = true
		if _, err := kernels.Build(j.Profile, j.Grid); err != nil {
			return nil, nil, err
		}
	}
	eng := &runner.Engine{Jobs: w.workers, Events: sink}
	warm, err := warmJob()
	if err != nil {
		return nil, nil, err
	}
	if err := eng.Run([]*runner.Job{warm}).Err(); err != nil {
		return nil, nil, fmt.Errorf("perfbench: warm-up: %w", err)
	}
	return eng, jobs, nil
}

// runUnit runs one unit's jobs and checks them against the expectations;
// labelled are the same jobs with their untimed policies, which name them
// there. It returns the unit's figures and the batch.
func (w inproc) runUnit(eng *runner.Engine, exp *expectations, t *tally, jobs, labelled []*runner.Job) (unit, *runner.Batch) {
	start, cpu := time.Now(), processCPU()
	b := eng.Run(jobs)
	u := unit{wall: time.Since(start).Seconds(), requests: len(jobs)}
	u.secs = u.wall
	if w.cpuClock() {
		u.secs = (processCPU() - cpu).Seconds()
	}
	for _, r := range b.Results {
		if r != nil {
			u.instr += r.Metrics.Instructions
			u.cycles += r.Metrics.Cycles
		}
	}
	lb := *b
	lb.Jobs = labelled
	checkJobs(t, exp, w.name, &lb)
	return u, b
}

func (w inproc) run(o options, exp *expectations) (*report, error) {
	rep := &report{info: map[string]any{"clock": "wall"}}
	if w.cpuClock() {
		rep.info["clock"] = "process CPU"
	}
	sink := &spanSink{}
	var (
		eng   *runner.Engine
		built []*runner.Job
	)
	for range setupReps {
		t0, cpu := time.Now(), processCPU()
		var err error
		if eng, built, err = w.setup(sink); err != nil {
			return nil, err
		}
		secs := time.Since(t0).Seconds()
		if w.cpuClock() {
			secs = (processCPU() - cpu).Seconds()
		}
		rep.setup = append(rep.setup, secs)
	}

	var tr *inprocTrace
	if o.trace {
		tr = &inprocTrace{tr: newTracer(o.tmpDir), hooks: &hookSet{}}
	}
	var geomeans []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for u := 0; u == 0 || time.Now().Before(deadline); u++ {
		jobs := built
		if w.order != nil {
			jobs = w.order(built, o.seed, u)
		}
		if tr != nil {
			g, err := w.tracedUnit(eng, sink, exp, rep, tr, jobs)
			if err != nil {
				return nil, err
			}
			geomeans = append(geomeans, g)
			continue
		}
		un, b := w.runUnit(eng, exp, &rep.checks, jobs, jobs)
		geomeans = append(geomeans, w.check(&rep.checks, exp, jobs, b.Results))
		if w.wholeUnit {
			un.requests = 1
			rep.latMS = append(rep.latMS, un.secs*1e3)
		} else {
			for _, sp := range sink.spans {
				ms := sp.ms()
				if w.cpuClock() {
					ms = sp.cpuMS()
				}
				rep.latMS = append(rep.latMS, ms)
			}
		}
		rep.units = append(rep.units, un)
	}
	rep.info["finereg_speedup_geomean"] = median(geomeans)
	rep.info["finereg_speedup_geomean_paper"] = paperGeomean
	rep.info["model_validation"] = "unvalidated against hardware; the paper's figure is shown for shape only"
	if tr != nil {
		if err := tr.finish(rep, built); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// inprocTrace accumulates the traced units of an in-process run.
type inprocTrace struct {
	tr                             *tracer
	hooks                          *hookSet
	refTraced, refUntraced, spanMS float64
	ms                             []*stats.Metrics
	runners                        []map[string]float64
	jobMS                          []float64
}

// tracedUnit runs one unit's untraced reference, then the whole unit with
// timed policies, stall attribution and a CPU profile, and returns the
// traced unit's geomean. The reference is the whole unit, or every other
// job of it for a whole-figure unit, which keeps a traced fig13-quick run
// well inside its time limit. Each reference job's traced metrics must
// equal its untraced ones, and the tracing overhead compares the two
// runs' job spans over the reference jobs.
func (w inproc) tracedUnit(eng *runner.Engine, sink *spanSink, exp *expectations, rep *report, tr *inprocTrace, jobs []*runner.Job) (float64, error) {
	var refIdx []int
	for i := range jobs {
		if !w.wholeUnit || i%2 == 1 {
			refIdx = append(refIdx, i)
		}
	}
	ref := make([]*runner.Job, len(refIdx))
	for k, i := range refIdx {
		ref[k] = jobs[i]
	}
	_, untraced := w.runUnit(eng, exp, &rep.checks, ref, ref)
	refMS := map[int]float64{}
	for _, sp := range sink.spans {
		refMS[sp.id] = sp.ms()
	}

	wrapped, err := tr.hooks.wrapJobs(jobs)
	if err != nil {
		return 0, err
	}
	for i, j := range jobs {
		wrapped[i].Stalls = w.stalls(j)
	}
	if err := tr.tr.begin(); err != nil {
		return 0, err
	}
	_, b := w.runUnit(eng, exp, &rep.checks, wrapped, jobs)
	if err := tr.tr.end(); err != nil {
		return 0, err
	}
	g := w.check(&rep.checks, exp, jobs, b.Results)
	tr.runners = append(tr.runners, runnerLayer(sink, w.workers))
	tracedMS := map[int]float64{}
	for _, sp := range sink.spans {
		tracedMS[sp.id] = sp.ms()
		tr.jobMS = append(tr.jobMS, sp.ms())
		tr.spanMS += sp.ms()
	}
	for _, r := range b.Results {
		if r != nil {
			tr.ms = append(tr.ms, r.Metrics)
		}
	}
	for k, i := range refIdx {
		if b.Errs[i] != nil || untraced.Errs[k] != nil {
			continue // already counted by the expectation check
		}
		rep.checks.attempted++
		if digest(b.Results[i].Metrics) != digest(untraced.Results[k].Metrics) {
			rep.checks.fail("%s: traced metrics differ from the untraced run", jobLabel(w.name, jobs[i]))
		}
		tr.refTraced += tracedMS[i]
		tr.refUntraced += refMS[k]
	}
	return g, nil
}

// finish fills rep.layers from the traced units.
func (tr *inprocTrace) finish(rep *report, jobs []*runner.Job) error {
	layers, shares := tr.tr.layers()
	rep.info["cpu_share_by_package"] = shares
	for k, v := range tr.hooks.layers() {
		layers[k] = v
	}
	for k, v := range simLayers(tr.ms) {
		layers[k] = v
	}
	for _, k := range []string{"runner.worker_busy_frac", "runner.tail_s"} {
		var vs []float64
		for _, r := range tr.runners {
			vs = append(vs, r[k])
		}
		layers[k] = median(vs)
	}
	layers["runner.job_ms_p50"] = median(tr.jobMS)
	layers["runner.job_ms_max"] = sorted(append(tr.jobMS, 0))[len(tr.jobMS)]
	layers["runner.cache_hit_frac"] = 0 // these workloads run without a cache
	layers["gpu.run_self_ms"] = tr.spanMS - layers["regfile.hooks_ms"] - layers["core.hooks_ms"]
	layers["trace.overhead_frac"] = tr.refTraced/tr.refUntraced - 1
	for _, k := range []string{"serve.submit_ms_p50", "serve.finish_lag_ms_p50", "serve.coalesced_frac", "serve.shed_total", "serve.rejected_400"} {
		layers[k] = 0 // no HTTP path in process
	}
	fe, err := benchFrontEnd(jobs)
	if err != nil {
		return err
	}
	for k, v := range fe {
		layers[k] = v
	}
	rep.layers = layers
	return nil
}

// benchFrontEnd times the front end on the workload's built-in benches:
// workload.Program.Load for each bench, and the assembler and liveness
// pass on each bench's generated program round-tripped through its
// assembly text.
func benchFrontEnd(jobs []*runner.Job) (map[string]float64, error) {
	var load, asm, live []float64
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Profile.Abbrev] {
			continue
		}
		seen[j.Profile.Abbrev] = true
		p := workload.Program{Bench: j.Profile.Abbrev, Grid: j.Grid}
		t := time.Now()
		k, err := p.Load(kernels.Limits{})
		if err != nil {
			return nil, err
		}
		load = append(load, float64(time.Since(t).Microseconds())/1e3)
		a, l, err := timeAsmLiveness(isa.EmitAsm(k.Prog))
		if err != nil {
			return nil, fmt.Errorf("perfbench: %s assembly round trip: %w", j.Profile.Abbrev, err)
		}
		asm, live = append(asm, a), append(live, l)
	}
	return map[string]float64{
		"workload.load_ms_p50":    median(load),
		"isa.assemble_us_p50":     median(asm),
		"liveness.analyze_us_p50": median(live),
	}, nil
}

// timeAsmLiveness assembles src and runs the liveness pass on it,
// returning each call's duration in microseconds.
func timeAsmLiveness(src string) (asmUS, liveUS float64, err error) {
	t := time.Now()
	prog, _, err := isa.AssembleLaunch(src)
	if err != nil {
		return 0, 0, err
	}
	asmUS = float64(time.Since(t).Nanoseconds()) / 1e3
	t = time.Now()
	if _, err := liveness.Analyze(prog); err != nil {
		return 0, 0, err
	}
	return asmUS, float64(time.Since(t).Nanoseconds()) / 1e3, nil
}
