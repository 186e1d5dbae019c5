package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"finereg/internal/experiments"
	"finereg/internal/gpu"
	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/stats"
)

// paper16Benches are the paper-scale single-run benches: CS (compute-bound
// Type-S, the historical hot-path cell), KM (random access, memory-bound),
// LI (Type-R, the most FineReg CTA switches) and SG (Type-R, the most
// instructions).
var paper16Benches = []string{"CS", "KM", "LI", "SG"}

// paper16Policies are the five configurations at their default operating
// points (Reg+DRAM cap 4, VT+RegMutex SRP 0.25), as finereg-sim runs them.
var paper16Policies = []runner.PolicySpec{
	runner.Baseline(), runner.VirtualThread(), runner.RegDRAM(4),
	runner.VTRegMutex(0.25), runner.FineRegDefault(),
}

// sweepCell is one (bench, configuration) cell of Figure 13 and the job
// indices of its tuning candidates.
type sweepCell struct {
	bench string
	cn    experiments.ConfigName
	refs  []int
}

// fig13Jobs builds the quick-scale Figure 13 sweep job for job as
// experiments.RunSweep(experiments.Quick()) declares it: 18 benches × 5
// configurations, with the Reg+DRAM caps {0,2,4} and VT+RegMutex SRP
// fractions {0.10..0.30} as tuning candidates — 198 jobs in declaration
// order. Recording checks that these jobs render the same Figure 13 as
// experiments.RunSweep, so a drift in the experiments package fails the
// benchmark's output check instead of going unnoticed.
func fig13Jobs() ([]*runner.Job, []sweepCell, error) {
	q := experiments.Quick()
	cfg := gpu.Default().Scale(q.SMs)
	var jobs []*runner.Job
	var cells []sweepCell
	for _, name := range kernels.Names() {
		p, err := kernels.ProfileByName(name)
		if err != nil {
			return nil, nil, err
		}
		// experiments.Options.profile scales the streaming footprint with
		// the machine; Options.grid scales the reference grid.
		p.FootprintKB = max(256, int(float64(p.FootprintKB)*float64(q.SMs)/16))
		grid := max(q.SMs, int(float64(p.GridCTAs)*q.GridScale+0.5))
		for _, cn := range experiments.StandardConfigs() {
			c := sweepCell{bench: name, cn: cn}
			for _, spec := range candidates(cn) {
				c.refs = append(c.refs, len(jobs))
				jobs = append(jobs, &runner.Job{Cfg: cfg, Profile: p, Grid: grid, Policy: spec})
			}
			cells = append(cells, c)
		}
	}
	return jobs, cells, nil
}

// candidates lists a configuration's tuning candidates in the order the
// experiments package submits them.
func candidates(cn experiments.ConfigName) []runner.PolicySpec {
	switch cn {
	case experiments.CfgVT:
		return []runner.PolicySpec{runner.VirtualThread()}
	case experiments.CfgRegDRAM:
		return []runner.PolicySpec{runner.RegDRAM(0), runner.RegDRAM(2), runner.RegDRAM(4)}
	case experiments.CfgRegMutex:
		var out []runner.PolicySpec
		for _, f := range []float64{0.10, 0.15, 0.20, 0.25, 0.30} {
			out = append(out, runner.VTRegMutex(f))
		}
		return out
	case experiments.CfgFineReg:
		return []runner.PolicySpec{runner.FineRegDefault()}
	}
	return []runner.PolicySpec{runner.Baseline()}
}

// paper16Jobs builds one paper-scale (16-SM, reference grid) job per
// bench and policy, bench-major.
func paper16Jobs() ([]*runner.Job, error) {
	var jobs []*runner.Job
	for _, b := range paper16Benches {
		p, err := kernels.ProfileByName(b)
		if err != nil {
			return nil, err
		}
		for _, spec := range paper16Policies {
			jobs = append(jobs, &runner.Job{Cfg: gpu.Default(), Profile: p, Grid: p.GridCTAs, Policy: spec})
		}
	}
	return jobs, nil
}

// figure13 picks each cell's best candidate the way the experiments
// package does (peak IPC, earliest wins ties, tuned cells relabeled to
// their configuration name) and renders Figure 13 from the results.
func figure13(cells []sweepCell, results []*runner.Result) *experiments.Figure13Result {
	s := &experiments.Sweep{Configs: experiments.StandardConfigs(), Runs: map[string]map[experiments.ConfigName]*experiments.Run{}}
	for _, c := range cells {
		if s.Runs[c.bench] == nil {
			s.Order = append(s.Order, c.bench)
			s.Runs[c.bench] = map[experiments.ConfigName]*experiments.Run{}
		}
		best := results[c.refs[0]].Metrics
		for _, r := range c.refs[1:] {
			if m := results[r].Metrics; m.IPC() > best.IPC() {
				best = m
			}
		}
		best = best.Clone()
		if len(c.refs) > 1 {
			best.Config = string(c.cn)
		}
		s.Runs[c.bench][c.cn] = &experiments.Run{Metrics: best}
	}
	return experiments.Figure13(s)
}

// jobLabel names a job in the expectations file and in failure messages.
func jobLabel(workload string, j *runner.Job) string {
	return fmt.Sprintf("%s/%s/%s", workload, j.Profile.Abbrev, j.Policy.Name())
}

// digest is a short content hash of a run's simulated statistics. The
// stall breakdown is left out: it is only present when a traced run
// attached the stall aggregator, and every other field must be unchanged
// by that.
func digest(m *stats.Metrics) string {
	c := m.Clone()
	c.Stalls = nil
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("perfbench: metrics encoding: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

//go:embed expect.json
var expectJSON []byte

// expectations are the outputs recorded from the current simulator:
// one metrics digest per in-process job and the rendered Figure 13,
// valid only under the SimFingerprint they were recorded with.
type expectations struct {
	SimFingerprint string            `json:"sim_fingerprint"`
	Fig13Table     string            `json:"fig13_table"`
	Digests        map[string]string `json:"digests"`
}

func loadExpectations() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return nil, fmt.Errorf("perfbench: decoding expect.json: %w", err)
	}
	if e.SimFingerprint != runner.SimFingerprint {
		return nil, fmt.Errorf("perfbench: expect.json was recorded under %s but the simulator is now %s; "+
			"check that the change to simulated results is intended, then re-record with "+
			"`go run . -record expect.json` in perfbench/", e.SimFingerprint, runner.SimFingerprint)
	}
	return &e, nil
}

// tally counts checked operations and the ones that failed.
type tally struct {
	attempted, failed int
	notes             []string
}

// fail records one failed operation; the first few reasons are kept for
// the error report.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// checkJobs counts each job as one operation and fails it when it
// errored or its metrics digest differs from the recorded one.
func checkJobs(t *tally, exp *expectations, workload string, b *runner.Batch) {
	for i, j := range b.Jobs {
		t.attempted++
		label := jobLabel(workload, j)
		if err := b.Errs[i]; err != nil {
			t.fail("%s: %v", label, err)
			continue
		}
		if d, want := digest(b.Results[i].Metrics), exp.Digests[label]; d != want {
			t.fail("%s: metrics digest %s, recorded %q", label, d, want)
		}
	}
}

// recordDigests runs jobs and adds their metrics digests to e.
func recordDigests(e *expectations, workload string, jobs []*runner.Job) (*runner.Batch, error) {
	b := (&runner.Engine{Jobs: 2}).Run(jobs)
	if err := b.Err(); err != nil {
		return nil, err
	}
	for i, j := range jobs {
		e.Digests[jobLabel(workload, j)] = digest(b.Results[i].Metrics)
	}
	return b, nil
}

// record re-runs the reference outputs and writes them to path. The
// Figure 13 table comes from experiments.RunSweep itself, and the
// benchmark's own copy of the sweep must render it identically.
func record(path string) error {
	o := experiments.Quick()
	o.Runner = &runner.Engine{Jobs: 2}
	sweep, err := experiments.RunSweep(o)
	if err != nil {
		return err
	}
	want := experiments.Figure13(sweep).Render()

	e := expectations{SimFingerprint: runner.SimFingerprint, Fig13Table: want, Digests: map[string]string{}}
	jobs, cells, err := fig13Jobs()
	if err != nil {
		return err
	}
	b, err := recordDigests(&e, "fig13-quick", jobs)
	if err != nil {
		return err
	}
	if got := figure13(cells, b.Results).Render(); got != want {
		return fmt.Errorf("perfbench: the benchmark's fig13 job list renders\n%s\nbut experiments.RunSweep renders\n%s", got, want)
	}
	pj, err := paper16Jobs()
	if err != nil {
		return err
	}
	if _, err := recordDigests(&e, "paper16-policies", pj); err != nil {
		return err
	}
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
