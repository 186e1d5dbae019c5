package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"finereg/internal/gpu"
	"finereg/internal/mem"
	"finereg/internal/runner"
	"finereg/internal/sm"
	"finereg/internal/stats"
	"finereg/internal/telemetry"
	"finereg/internal/trace"
)

// span is one job's wall-clock interval as the engine reported it, and
// the CPU time the process used in it; id is the job's index in its batch.
type span struct {
	id         int
	start, end time.Time
	cpu        time.Duration
}

func (s span) ms() float64    { return float64(s.end.Sub(s.start).Microseconds()) / 1e3 }
func (s span) cpuMS() float64 { return float64(s.cpu.Microseconds()) / 1e3 }

// spanSink is a trace.JobSink that timestamps each executed job's start
// and end. The engine serializes its calls, so it needs no lock.
type spanSink struct {
	open       map[int]stamp
	spans      []span
	begin, end time.Time
}

// stamp is a moment on both clocks.
type stamp struct {
	at  time.Time
	cpu time.Duration
}

func (s *spanSink) BatchStart(int) {
	s.open = map[int]stamp{}
	s.spans = s.spans[:0]
	s.begin = time.Now()
}
func (s *spanSink) BatchEnd()                                     { s.end = time.Now() }
func (s *spanSink) JobStart(id int, _ string)                     { s.open[id] = stamp{time.Now(), processCPU()} }
func (s *spanSink) JobProgress(int, string, trace.ProgressSample) {}
func (s *spanSink) JobDone(id int, _ string, _ bool, _ error) {
	if t, ok := s.open[id]; ok {
		s.spans = append(s.spans, span{id, t.at, time.Now(), processCPU() - t.cpu})
	}
}

// runnerLayer derives the runner's per-layer metrics from one batch's
// spans on a pool of workers: job duration median and maximum, the share
// of worker time spent inside jobs, and the tail — the time from the last
// moment every worker was busy to the end of the batch.
func runnerLayer(s *spanSink, workers int) map[string]float64 {
	var ms []float64
	busy := 0.0
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, sp := range s.spans {
		ms = append(ms, sp.ms())
		busy += sp.end.Sub(sp.start).Seconds()
		edges = append(edges, edge{sp.start, +1}, edge{sp.end, -1})
	}
	wall := s.end.Sub(s.begin).Seconds()
	out := map[string]float64{
		"runner.job_ms_p50": median(ms),
		"runner.job_ms_max": sorted(append(ms, 0))[len(ms)],
	}
	if wall > 0 {
		out["runner.worker_busy_frac"] = busy / (float64(workers) * wall)
	}
	// Sweep the start/end edges in time order (ends first on ties, so a
	// back-to-back handoff never reads as a full pool); the pool was full
	// from an edge that left every worker busy until the next edge.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at.Equal(edges[b].at) {
			return edges[a].delta < edges[b].delta
		}
		return edges[a].at.Before(edges[b].at)
	})
	lastFull, running := s.begin, 0
	for _, e := range edges {
		if running >= workers {
			lastFull = e.at
		}
		running += e.delta
	}
	out["runner.tail_s"] = s.end.Sub(lastFull).Seconds()
	return out
}

// hookCounts accumulates one policy instance's hook activity. Each
// instance belongs to one SM of one serial simulation, so it is written
// by one goroutine and read only after the batch has returned.
type hookCounts struct {
	layer                   string
	allowCalls, allowDenied int64
	frequent                timing // AllowIssue and BlockedOnRegisters, sampled
	blockedCalls            int64
	other                   timing // the CTA lifecycle hooks, timed on every call
}

// timing sums the measured durations of timed calls.
type timing struct{ n, ns int64 }

// since records a call that started at start, net of bias: the duration
// an empty timed region measured just before it. The subtraction cancels
// the clock reads' own cost, which would otherwise dominate a call of a
// few nanoseconds.
func (t *timing) since(start time.Time, bias time.Duration) {
	t.n++
	t.ns += int64(time.Since(start) - bias)
}

// clockBias times an empty region.
func clockBias() time.Duration {
	t := time.Now()
	return time.Since(t)
}

// timeHook runs one CTA lifecycle hook; these are rare, so every call is
// timed.
func (c *hookCounts) timeHook(hook func()) {
	b := clockBias()
	t := time.Now()
	hook()
	c.other.since(t, b)
}

// hookSample is the sampling stride of the per-issue hooks: one call in
// hookSample is timed and the total is scaled up, because those calls are
// too frequent and too short to time every one without distorting them.
const hookSample = 64

// timedPolicy wraps a register-file policy and times its hooks. It
// changes no decision: every call is forwarded unchanged, so the
// simulated statistics stay byte-identical (a self-test checks this).
type timedPolicy struct {
	sm.Policy
	c *hookCounts
}

func (p *timedPolicy) KernelStart(s *sm.SM, now int64) {
	p.c.timeHook(func() { p.Policy.KernelStart(s, now) })
}

func (p *timedPolicy) FillSlots(s *sm.SM, now int64) {
	p.c.timeHook(func() { p.Policy.FillSlots(s, now) })
}

func (p *timedPolicy) OnCTAStalled(s *sm.SM, c *sm.CTA, now int64) {
	p.c.timeHook(func() { p.Policy.OnCTAStalled(s, c, now) })
}

func (p *timedPolicy) OnCTAReady(s *sm.SM, c *sm.CTA, now int64) {
	p.c.timeHook(func() { p.Policy.OnCTAReady(s, c, now) })
}

func (p *timedPolicy) OnCTAFinished(s *sm.SM, c *sm.CTA, now int64) {
	p.c.timeHook(func() { p.Policy.OnCTAFinished(s, c, now) })
}

func (p *timedPolicy) AllowIssue(s *sm.SM, w *sm.Warp, now int64) bool {
	c := p.c
	c.allowCalls++
	var ok bool
	if c.allowCalls%hookSample == 0 {
		b := clockBias()
		t := time.Now()
		ok = p.Policy.AllowIssue(s, w, now)
		c.frequent.since(t, b)
	} else {
		ok = p.Policy.AllowIssue(s, w, now)
	}
	if !ok {
		c.allowDenied++
	}
	return ok
}

func (p *timedPolicy) BlockedOnRegisters() bool {
	c := p.c
	c.blockedCalls++
	if c.blockedCalls%hookSample != 0 {
		return p.Policy.BlockedOnRegisters()
	}
	b := clockBias()
	t := time.Now()
	v := p.Policy.BlockedOnRegisters()
	c.frequent.since(t, b)
	return v
}

// hookSet hands out timed policies and keeps their counters (not the
// policies, which would pin every finished simulation's state).
type hookSet struct {
	mu     sync.Mutex
	counts []*hookCounts
}

// hookLayer names the package whose hooks a policy runs: FineReg lives in
// internal/core, the rival policies in internal/regfile.
func hookLayer(spec runner.PolicySpec) string {
	if strings.HasPrefix(spec.Kind, "finereg") {
		return "core"
	}
	return "regfile"
}

// wrap returns a policy spec that builds spec's policy inside a
// timedPolicy. The custom name keeps wrapped jobs apart from plain ones in
// any cache.
func (h *hookSet) wrap(spec runner.PolicySpec) (runner.PolicySpec, error) {
	inner, err := spec.Factory()
	if err != nil {
		return spec, err
	}
	layer := hookLayer(spec)
	return runner.Custom("timed-"+spec.Name(), gpu.PolicyFactory(func(cfg sm.Config, hier *mem.Hierarchy) sm.Policy {
		c := &hookCounts{layer: layer}
		h.mu.Lock()
		h.counts = append(h.counts, c)
		h.mu.Unlock()
		return &timedPolicy{Policy: inner(cfg, hier), c: c}
	})), nil
}

// wrapJobs returns copies of jobs whose policies are timed.
func (h *hookSet) wrapJobs(jobs []*runner.Job) ([]*runner.Job, error) {
	out := make([]*runner.Job, len(jobs))
	for i, j := range jobs {
		c := *j
		spec, err := h.wrap(j.Policy)
		if err != nil {
			return nil, err
		}
		c.Policy = spec
		out[i] = &c
	}
	return out, nil
}

// layers sums the counters into the regfile and core hook metrics. Hook
// time is the sampled per-issue hook time scaled to all calls, plus the
// lifecycle hooks.
func (h *hookSet) layers() map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	type agg struct{ allow, denied, frequentNs, otherNs float64 }
	by := map[string]*agg{"regfile": {}, "core": {}}
	net := func(t timing) float64 { return max(0, float64(t.ns)) }
	for _, c := range h.counts {
		a := by[c.layer]
		a.allow += float64(c.allowCalls)
		a.denied += float64(c.allowDenied)
		if c.frequent.n > 0 {
			a.frequentNs += net(c.frequent) * float64(c.allowCalls+c.blockedCalls) / float64(c.frequent.n)
		}
		a.otherNs += net(c.other)
	}
	out := map[string]float64{}
	for layer, a := range by {
		out[layer+".hooks_ms"] = (a.frequentNs + a.otherNs) / 1e6
		if layer == "regfile" {
			out["regfile.allow_issue.calls"] = a.allow
			out["regfile.allow_issue.denied_frac"] = ratio(a.denied, a.allow)
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simLayers aggregates the simulated statistics of a set of runs into
// the sm and mem layer metrics. Stall fractions cover only the runs that
// carried a stall breakdown.
func simLayers(ms []*stats.Metrics) map[string]float64 {
	var instr, switches, l1a, l1m, l2a, l2m, dram float64
	var st stats.StallBreakdown
	for _, m := range ms {
		instr += float64(m.Instructions)
		switches += float64(m.CTASwitches)
		l1a += float64(m.L1Accesses)
		l1m += float64(m.L1Misses)
		l2a += float64(m.L2Accesses)
		l2m += float64(m.L2Misses)
		dram += float64(m.DRAMBytes())
		if s := m.Stalls; s != nil {
			st.WarpSlotCycles += s.WarpSlotCycles
			st.IssueCycles += s.IssueCycles
			st.MemoryCycles += s.MemoryCycles
			st.ScoreboardCycles += s.ScoreboardCycles
			st.RegDepletionCycles += s.RegDepletionCycles
		}
	}
	slots := float64(st.WarpSlotCycles)
	return map[string]float64{
		"sm.instructions":             instr,
		"sm.cta_switches":             switches,
		"sm.stall.issue_frac":         ratio(float64(st.IssueCycles), slots),
		"sm.stall.memory_frac":        ratio(float64(st.MemoryCycles), slots),
		"sm.stall.scoreboard_frac":    ratio(float64(st.ScoreboardCycles), slots),
		"sm.stall.reg_depletion_frac": ratio(float64(st.RegDepletionCycles), slots),
		"mem.l1_miss_rate":            ratio(l1m, l1a),
		"mem.l2_accesses":             l2a,
		"mem.l2_miss_rate":            ratio(l2m, l2a),
		"mem.dram_bytes":              dram,
	}
}

// tracer accumulates the traced phases of a run: a CPU profile of each,
// and the simulator's telemetry counters and the Go runtime's allocation
// and GC counters, read at each phase's start and end.
type tracer struct {
	tmpDir  string
	cpu     map[string]float64 // profiled CPU seconds by module
	tel     telemetry.Snapshot // counter increases over all phases
	runtime [3]float64         // increases of runtimeMetrics over all phases

	prof *os.File // the open phase
	tel0 telemetry.Snapshot
	rt0  []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return float64(s.Value.Uint64())
	}
	return s.Value.Float64()
}

func newTracer(tmpDir string) *tracer {
	return &tracer{tmpDir: tmpDir, cpu: map[string]float64{}, tel: telemetry.Snapshot{}}
}

// begin opens a traced phase.
func (t *tracer) begin() error {
	f, err := os.CreateTemp(t.tmpDir, "perfbench-cpu-*.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	t.prof, t.tel0, t.rt0 = f, telemetry.Capture(), readRuntime()
	return nil
}

// end closes the traced phase and adds its counts.
func (t *tracer) end() error {
	pprof.StopCPUProfile()
	rt := readRuntime()
	for k, v := range telemetry.Capture().Delta(t.tel0) {
		t.tel[k] += v
	}
	for i := range rt {
		t.runtime[i] += sampleValue(rt[i]) - sampleValue(t.rt0[i])
	}
	path := t.prof.Name()
	defer os.Remove(path)
	if err := t.prof.Close(); err != nil {
		return fmt.Errorf("perfbench: closing CPU profile: %w", err)
	}
	byMod, err := cpuByModule(path)
	if err != nil {
		return err
	}
	for k, v := range byMod {
		t.cpu[k] += v
	}
	return nil
}

// layers returns the core telemetry, host and per-package CPU-share
// metrics of every phase so far, and the shares of all modules.
func (t *tracer) layers() (map[string]float64, map[string]float64) {
	total := 0.0
	for _, v := range t.cpu {
		total += v
	}
	shares := map[string]float64{}
	for k, v := range t.cpu {
		shares[k] = ratio(v, total)
	}
	out := map[string]float64{
		"core.pcrf_spill_regs":  float64(t.tel["finereg_pcrf_spill_regs"]),
		"core.pcrf_fill_regs":   float64(t.tel["finereg_pcrf_fill_regs"]),
		"core.depletion_events": float64(t.tel["finereg_depletion_events"]),
		"host.alloc_mb":         t.runtime[0] / (1 << 20),
		"host.gc_cpu_frac":      ratio(t.runtime[1], t.runtime[2]),
	}
	for _, mod := range []string{"regfile", "core", "sm", "gpu", "mem"} {
		out[mod+".cpu_share"] = shares[mod]
	}
	return out, shares
}

// cpuByModule runs `go tool pprof -traces` on a CPU profile and charges
// each sample to the innermost frame from a finereg/internal/<module>
// package, or to "perfbench" for the benchmark's own wrappers. Runtime
// frames (map lookups, allocation) are charged to the module that called
// them; samples with no such frame (GC workers, the scheduler) count as
// "other". The result maps module to profiled CPU seconds.
func cpuByModule(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("perfbench: go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces groups `pprof -traces` text output by module; see
// cpuByModule.
func parseTraces(out []byte) (map[string]float64, error) {
	byMod := map[string]float64{}
	var cur float64
	mod := ""
	flush := func() {
		if cur > 0 {
			if mod == "" {
				mod = "other"
			}
			byMod[mod] += cur
		}
		cur, mod = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		// A sample opens with its value and innermost frame; the frames
		// below it stand alone on their lines.
		fn := fields[0]
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) >= 2 {
			cur, fn = d.Seconds(), fields[1]
		}
		if mod != "" {
			continue
		}
		switch {
		case strings.HasPrefix(fn, "finereg/internal/"):
			mod = strings.SplitN(strings.TrimPrefix(fn, "finereg/internal/"), ".", 2)[0]
			mod = strings.SplitN(mod, "/", 2)[0]
		case strings.HasPrefix(fn, "main."):
			mod = "perfbench"
		}
	}
	flush()
	return byMod, sc.Err()
}

// processCPU is the CPU time the process has used, user and system. On a
// virtual machine it leaves out the time the hypervisor gave the CPU to
// other guests (steal time), which the wall clock counts.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// profileDir returns dir, created if needed.
func profileDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return abs, os.MkdirAll(abs, 0o755)
}
