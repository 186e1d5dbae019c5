package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"finereg/internal/kernels"
	"finereg/internal/runner"
	"finereg/internal/serve"
	"finereg/internal/stats"
	"finereg/internal/workload"
)

// saxpyPath is the user program the fresh .sasm jobs are variants of,
// relative to the repository root.
const saxpyPath = "examples/saxpy.sasm"

// saxpySource is the program at saxpyPath, read by loadSaxpy.
var saxpySource string

// saxpyTokens are the lines of the example that saxpyVariant and
// malformed rewrite. An edit of the example that drops one would leave
// the variants or the broken programs unchanged, so loading refuses it.
var saxpyTokens = []string{
	".kernel saxpy", ".regs 12", "MOV R1, #16", "trip=16",
	"FFMA R5", "BRA loop", "STG [R0], R5",
}

// loadSaxpy reads the example program from path into saxpySource.
func loadSaxpy(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("perfbench: serve-mixed needs the example program: %w", err)
	}
	for _, tok := range saxpyTokens {
		if !strings.Contains(string(raw), tok) {
			return fmt.Errorf("perfbench: %s no longer contains %q, which serve-mixed rewrites", path, tok)
		}
	}
	saxpySource = string(raw)
	return nil
}

// serveClients is the closed loop's client count; the server has as many
// workers. Each client sends its next request when the last one finished.
const serveClients = 2

// reqKind is one request class of the serve-mixed traffic.
type reqKind int

const (
	kindSasm      reqKind = iota // a fresh user .sasm program: a new cache entry
	kindBench                    // a fresh small built-in bench job
	kindResubmit                 // a job this client already finished: answered without simulating
	kindMalformed                // a broken program: must come back as a structured 400
	numKinds
)

// mix is the fixed request mix each client cycles through: 11 fresh user
// programs, 1 fresh bench job, 6 resubmissions and 2 malformed programs
// in every 20. No serve traffic has been recorded, so these shares are
// assumptions, not measurements; README.md gives the basis of each. The
// record reports every class's count and latencies apart, so a change
// that moves one class shows whatever the mix.
var mix = [20]reqKind{
	kindSasm, kindResubmit, kindSasm, kindBench, kindSasm,
	kindMalformed, kindSasm, kindResubmit, kindSasm, kindResubmit,
	kindSasm, kindSasm, kindResubmit, kindSasm, kindMalformed,
	kindSasm, kindResubmit, kindSasm, kindSasm, kindResubmit,
}

// Variant axes of the fresh jobs, all small: simulation should be a
// minor share of this workload's time, next to HTTP, keys, the cache and
// the front end. Each fresh .sasm job also gets its own kernel name, and
// every bench combination is a distinct job, so a fresh request never
// coalesces within a window.
var (
	sasmRegs     = []int{8, 10, 12, 16, 20, 24, 32}
	sasmWarps    = []int{1, 2, 4}
	sasmGrids    = []int{4, 8, 12, 16}
	sasmTrips    = []int{2, 3, 4, 6, 8}
	sasmPolicies = []runner.PolicySpec{runner.Baseline(), runner.VirtualThread(), runner.FineRegDefault()}
	benchPols    = []runner.PolicySpec{
		runner.Baseline(), runner.VirtualThread(), runner.RegDRAM(0),
		runner.RegDRAM(2), runner.RegDRAM(4), runner.FineRegDefault(),
	}
)

const (
	// serveSMs sizes every job's machine: the quick-scale 4-SM GPU.
	serveSMs = 4
	// benchGrids is the number of bench grid sizes, 4..19 CTAs.
	benchGrids = 16
	// windowRequests is how many requests each client sends in one
	// measured window, about 5 s at 1700 requests per second on a 2-vCPU
	// host. Each window gets a fresh server, so a run of several windows
	// reports medians over independent repetitions. The work of a window
	// is fixed rather than its time so that what it holds in memory does
	// not grow with the server's speed.
	windowRequests = 4700
	// resubmitWindow is how many of a client's latest finished jobs a
	// resubmission picks from: far fewer than the server's retained
	// records (serve.DefaultMaxRecords) across both clients.
	resubmitWindow = 256
)

// saxpyVariant renames the example's kernel and rewrites its register
// and trip counts.
func saxpyVariant(name string, regs, trip int) string {
	r := strings.NewReplacer(
		".kernel saxpy", ".kernel "+name,
		".regs 12", ".regs "+strconv.Itoa(regs),
		"MOV R1, #16", "MOV R1, #"+strconv.Itoa(trip),
		"trip=16", "trip="+strconv.Itoa(trip),
	)
	return r.Replace(saxpySource)
}

// malformed returns the n-th broken program. Each breaks the example in a
// way admission must reject with a structured workload error; n also
// varies the broken token, so the sources differ.
func malformed(n int) string {
	k := n / 4
	reg := 70 + k%30
	switch n % 4 {
	case 0: // unknown mnemonic
		return strings.Replace(saxpySource, "FFMA R5", fmt.Sprintf("FMAX%d R5", k%10), 1)
	case 1: // register beyond the architectural register file
		return strings.Replace(saxpySource, "FFMA R5", fmt.Sprintf("FFMA R%d", reg), 1)
	case 2: // branch to an undefined label
		return strings.Replace(saxpySource, "BRA loop", fmt.Sprintf("BRA nowhere%d", k), 1)
	}
	// missing operand
	return strings.Replace(saxpySource, "STG [R0], R5", "STG [R0]", 1)
}

// plan is a run's traffic, generated from the seed and drawn through
// shared cursors so each fresh job is sent once: .sasm variant i has
// seeded launch parameters and its own kernel name, and the bench jobs
// come in a seeded order.
type plan struct {
	seed       uint64
	bench      []serve.JobRequest
	nextSasm   atomic.Int64
	nextBench  atomic.Int64
	nextBroken atomic.Int64
}

func newPlan(seed uint64) *plan {
	p := &plan{seed: seed}
	for _, b := range kernels.Names() {
		for g := range benchGrids {
			for _, pol := range benchPols {
				p.bench = append(p.bench, serve.JobRequest{Bench: b, SMs: serveSMs, Grid: 4 + g, Policy: pol})
			}
		}
	}
	r := rand.New(rand.NewPCG(seed, 1))
	r.Shuffle(len(p.bench), func(a, b int) { p.bench[a], p.bench[b] = p.bench[b], p.bench[a] })
	return p
}

func (p *plan) fresh(kind reqKind) (serve.JobRequest, error) {
	if kind == kindSasm {
		i := p.nextSasm.Add(1) - 1
		r := rand.New(rand.NewPCG(p.seed, uint64(i)+2))
		pick := func(xs []int) int { return xs[r.IntN(len(xs))] }
		src := saxpyVariant(fmt.Sprintf("saxpy_v%d", i), pick(sasmRegs), pick(sasmTrips))
		return serve.JobRequest{
			Programs: []workload.Program{{Source: src, WarpsPerCTA: pick(sasmWarps), Grid: pick(sasmGrids)}},
			SMs:      serveSMs, Policy: sasmPolicies[r.IntN(len(sasmPolicies))],
		}, nil
	}
	i := p.nextBench.Add(1) - 1
	if int(i) >= len(p.bench) {
		return serve.JobRequest{}, fmt.Errorf("perfbench: serve-mixed ran out of fresh bench jobs after %d in one window", len(p.bench))
	}
	return p.bench[i], nil
}

func (p *plan) broken() serve.JobRequest {
	n := int(p.nextBroken.Add(1)) + int(p.seed%1000)
	return serve.JobRequest{
		Programs: []workload.Program{{Source: malformed(n)}},
		SMs:      serveSMs, Policy: runner.Baseline(),
	}
}

// servedJob is a fresh job the server completed.
type servedJob struct {
	req    serve.JobRequest
	result []byte // the served runner.Result, JSON-encoded
	execMS float64
	sasm   bool
}

// window is what one measured window of the closed loop produced.
type window struct {
	wall                   float64
	latMS, submitMS, lagMS []float64
	kindLatMS              [numKinds][]float64 // latMS by request class
	requests, rejected     int
	fresh                  []*servedJob
	checks                 tally
	counters               map[string]float64 // the server's /metrics at the window's end
}

// mixClient is one closed-loop client with its own connection pool.
type mixClient struct {
	c    *serve.Client
	rng  *rand.Rand
	pos  int
	done []*servedJob
	mu   *sync.Mutex // guards the window's shared slices
	w    *window
	plan *plan
}

// record books one finished request: its latency, its submit time and
// finish lag when it had them, and the failure, if any.
func (m *mixClient) record(kind reqKind, lat, submit time.Duration, lagMS float64, failed string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.w.requests++
	m.w.checks.attempted++
	ms := float64(lat.Microseconds()) / 1e3
	m.w.latMS = append(m.w.latMS, ms)
	m.w.kindLatMS[kind] = append(m.w.kindLatMS[kind], ms)
	if submit > 0 {
		m.w.submitMS = append(m.w.submitMS, float64(submit.Microseconds())/1e3)
	}
	if lagMS >= 0 {
		m.w.lagMS = append(m.w.lagMS, lagMS)
	}
	if failed != "" {
		m.w.checks.fail("%s", failed)
	}
}

// step sends the client's next request and waits for its outcome.
func (m *mixClient) step(ctx context.Context) error {
	kind := mix[m.pos%len(mix)]
	m.pos++
	if kind == kindResubmit && len(m.done) == 0 {
		kind = kindSasm
	}
	var (
		req  serve.JobRequest
		prev *servedJob
		err  error
	)
	switch kind {
	case kindSasm, kindBench:
		if req, err = m.plan.fresh(kind); err != nil {
			return err
		}
	case kindResubmit:
		// Only recent jobs: the server evicts its oldest finished records,
		// and a resubmission coalesced onto a record evicted before its
		// event stream opens would find the job gone.
		recent := m.done[max(0, len(m.done)-resubmitWindow):]
		prev = recent[m.rng.IntN(len(recent))]
		req = prev.req
	case kindMalformed:
		req = m.plan.broken()
	}

	t0 := time.Now()
	st, err := m.c.SubmitJob(ctx, req)
	submit := time.Since(t0)
	if kind == kindMalformed {
		var ae *serve.APIError
		msg := ""
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Body.Field == "" {
			msg = fmt.Sprintf("malformed program: want a structured 400, got %v", err)
		} else {
			m.mu.Lock()
			m.w.rejected++
			m.mu.Unlock()
		}
		m.record(kind, time.Since(t0), 0, -1, msg)
		return nil
	}
	if err != nil {
		m.record(kind, time.Since(t0), submit, -1, fmt.Sprintf("submit: %v", err))
		return nil
	}
	var fin serve.Event
	var finAt time.Time
	err = m.c.StreamEvents(ctx, st.ID, func(ev serve.Event) bool {
		if ev.Kind == "finish" {
			fin, finAt = ev, time.Now()
		}
		return true // read to the end of the stream so the connection is reused
	})
	lat := finAt.Sub(t0)
	switch {
	case err != nil:
		m.record(kind, time.Since(t0), submit, -1, fmt.Sprintf("%s: event stream: %v", st.ID, err))
		return nil
	case fin.Kind == "":
		m.record(kind, time.Since(t0), submit, -1, fmt.Sprintf("%s: stream ended without a finish event", st.ID))
		return nil
	case fin.State != "done":
		m.record(kind, lat, submit, -1, fmt.Sprintf("%s: finished %s: %s", st.ID, fin.State, fin.Error))
		return nil
	case (kind == kindResubmit) != (st.Coalesced || fin.Cached):
		// A resubmission is answered by its finished record or, once that
		// record is evicted, by the result cache; a fresh job by neither.
		m.record(kind, lat, submit, -1, fmt.Sprintf("%s: coalesced=%v cached=%v for a %s request",
			st.ID, st.Coalesced, fin.Cached, kindName(kind)))
		return nil
	}
	lag := float64(finAt.UnixMicro())/1e3 - float64(fin.AtMS)

	js, err := m.c.JobStatus(ctx, st.ID)
	if err != nil || js.Result == nil {
		m.record(kind, lat, submit, lag, fmt.Sprintf("%s: fetching the result: %v", st.ID, err))
		return nil
	}
	res, err := json.Marshal(js.Result)
	if err != nil {
		return err
	}
	if prev != nil {
		msg := ""
		if !bytes.Equal(res, prev.result) {
			msg = fmt.Sprintf("%s: resubmission returned a different result", st.ID)
		}
		m.record(kind, lat, submit, lag, msg)
		return nil
	}
	sj := &servedJob{req: req, result: res, sasm: kind == kindSasm,
		execMS: float64(js.FinishedAtMS - js.StartedAtMS)}
	m.done = append(m.done, sj)
	m.mu.Lock()
	m.w.fresh = append(m.w.fresh, sj)
	m.mu.Unlock()
	m.record(kind, lat, submit, lag, "")
	return nil
}

// classStats summarizes the latencies of each request class: its count,
// median and tail, with the percentile tailOrMax took the tail at.
func classStats(byKind [numKinds][]float64) map[string]any {
	out := map[string]any{}
	for k, lat := range byKind {
		tail, used := tailOrMax(lat, 99)
		out[[...]string{"sasm", "bench", "resubmit", "malformed"}[k]] = map[string]any{
			"requests": len(lat), "p50_ms": median(lat), "tail_ms": tail, "tail_percentile": used,
		}
	}
	return out
}

func kindName(k reqKind) string {
	return [...]string{"fresh .sasm", "fresh bench", "resubmission", "malformed"}[k]
}

// mixServer is the in-process server on a loopback listener.
type mixServer struct {
	srv      *serve.Server
	http     *http.Server
	base     string
	served   chan error
	stopOnce sync.Once
	stopErr  error
}

func startServer() (*mixServer, error) {
	srv := serve.New(serve.Config{Workers: serveClients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown(context.Background()))
	}
	s := &mixServer{srv: srv, http: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the simulation server, then the HTTP server, and waits for
// the serving goroutine to exit. Later calls return the first result.
func (s *mixServer) stop() error {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		if herr := s.http.Shutdown(ctx); err == nil {
			err = herr
		}
		if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		s.stopErr = err
	})
	return s.stopErr
}

func newClient(base string) *serve.Client {
	return &serve.Client{Base: base, HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
}

// warmUp sends one job outside the plan (the unmodified example at its
// own grid, which no variant uses) and waits for it to finish.
func warmUp(ctx context.Context, base string) error {
	c := newClient(base)
	defer c.HTTP.CloseIdleConnections()
	st, err := c.SubmitJob(ctx, serve.JobRequest{
		Programs: []workload.Program{{Source: saxpySource}}, SMs: serveSMs, Policy: runner.Baseline(),
	})
	if err != nil {
		return fmt.Errorf("perfbench: warm-up submit: %w", err)
	}
	state := ""
	if err := c.StreamEvents(ctx, st.ID, func(ev serve.Event) bool {
		if ev.Kind == "finish" {
			state = ev.State
		}
		return true
	}); err != nil {
		return err
	}
	if state != "done" {
		return fmt.Errorf("perfbench: warm-up job ended %q", state)
	}
	return nil
}

// runWindow starts a server, drives the closed loop against it for one
// window of windowRequests per fresh client, and stops it. The plan is drawn from the
// seed and the window's index.
func runWindow(ctx context.Context, seed uint64, index int) (*window, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	if err := warmUp(ctx, srv.base); err != nil {
		return nil, errors.Join(err, srv.stop())
	}
	p := newPlan(seed + uint64(index)<<32)
	w := &window{}
	mu := &sync.Mutex{}
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range serveClients {
		m := &mixClient{
			c:   newClient(srv.base),
			rng: rand.New(rand.NewPCG(p.seed, uint64(i))), pos: i * len(mix) / 2,
			mu: mu, w: w, plan: p,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer m.c.HTTP.CloseIdleConnections()
			for range windowRequests {
				if err := m.step(ctx); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start).Seconds()
	if w.counters, err = scrape(ctx, srv.base); err != nil {
		errs = append(errs, err)
	}
	return w, errors.Join(append(errs, srv.stop())...)
}

// scrape reads the server's /metrics counters by series name.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// verify runs every fresh served job in process and checks that its
// result is byte-identical to the served one. With hooks set, the
// in-process runs use timed policies and stall attribution, and the check
// compares metrics digests instead of bytes; their metrics are returned.
func verify(t *tally, fresh []*servedJob, hooks *hookSet) ([]*stats.Metrics, error) {
	jobs := make([]*runner.Job, len(fresh))
	for i, f := range fresh {
		j, err := f.req.Resolve()
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	run := jobs
	if hooks != nil {
		var err error
		if run, err = hooks.wrapJobs(jobs); err != nil {
			return nil, err
		}
		for _, j := range run {
			j.Stalls = true
		}
	}
	b := (&runner.Engine{Jobs: serveClients}).Run(run)
	var ms []*stats.Metrics
	for i, f := range fresh {
		t.attempted++
		if err := b.Errs[i]; err != nil {
			t.fail("in-process run of %s: %v", jobs[i].Label, err)
			continue
		}
		ms = append(ms, b.Results[i].Metrics)
		if hooks != nil {
			var served runner.Result
			if err := json.Unmarshal(f.result, &served); err != nil {
				return nil, err
			}
			if digest(served.Metrics) != digest(b.Results[i].Metrics) {
				t.fail("served result of %s differs from the traced in-process run", b.Results[i].Metrics.Benchmark)
			}
			continue
		}
		got, err := json.Marshal(b.Results[i])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, f.result) {
			t.fail("served result of %s is not byte-identical to the in-process run", b.Results[i].Metrics.Benchmark)
		}
	}
	return ms, nil
}

func windowUnit(w *window) unit {
	u := unit{secs: w.wall, wall: w.wall, requests: w.requests}
	for _, f := range w.fresh {
		var r runner.Result
		if json.Unmarshal(f.result, &r) == nil && r.Metrics != nil {
			u.instr += r.Metrics.Instructions
			u.cycles += r.Metrics.Cycles
		}
	}
	return u
}

// runServeMixed runs the closed loop against an in-process serve.Server
// over loopback HTTP, in windows that together last at least --seconds.
// A traced run alternates untraced and traced windows. Every fresh result
// of an untraced window is checked against an in-process run as soon as
// the window ends, and then dropped.
func runServeMixed(o options, _ *expectations) (*report, error) {
	if err := loadSaxpy(saxpyPath); err != nil {
		return nil, err
	}
	ctx := context.Background()
	rep := &report{info: map[string]any{"clock": "wall"}}
	for range setupReps {
		t0 := time.Now()
		newPlan(o.seed)
		s, err := startServer()
		if err != nil {
			return nil, err
		}
		if err := warmUp(ctx, s.base); err != nil {
			return nil, errors.Join(err, s.stop())
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
		if err := s.stop(); err != nil {
			return nil, err
		}
	}

	var tr *tracer
	if o.trace {
		tr = newTracer(o.tmpDir)
	}
	var (
		untraced, traced []*window
		measured         float64
		rejected         int
		byKind           [numKinds][]float64
	)
	for i := 0; measured < o.seconds || (tr != nil && i < 2); i++ {
		isTraced := tr != nil && i%2 == 1
		if isTraced {
			if err := tr.begin(); err != nil {
				return nil, err
			}
		}
		w, err := runWindow(ctx, o.seed, i)
		if isTraced {
			err = errors.Join(err, tr.end())
		}
		if err != nil {
			return nil, err
		}
		measured += w.wall
		rep.checks.attempted += w.checks.attempted
		rep.checks.failed += w.checks.failed
		rep.checks.notes = append(rep.checks.notes, w.checks.notes...)
		if isTraced {
			traced = append(traced, w)
			continue
		}
		untraced = append(untraced, w)
		rep.units = append(rep.units, windowUnit(w))
		rep.latMS = append(rep.latMS, w.latMS...)
		rejected += w.rejected
		for k, l := range w.kindLatMS {
			byKind[k] = append(byKind[k], l...)
		}
		if _, err := verify(&rep.checks, w.fresh, nil); err != nil {
			return nil, err
		}
		w.fresh = nil
		// Start every window from a collected heap, so the peak RSS does
		// not depend on where the previous window's garbage collection
		// happened to stop.
		runtime.GC()
	}
	rep.info["rejected_400"] = rejected
	rep.info["classes"] = classStats(byKind)
	if tr != nil {
		return rep, tracedServe(tr, rep, untraced, traced)
	}
	return rep, nil
}

// tracedServe fills the per-layer metrics from the traced windows. The
// simulation layers come from in-process re-runs of those windows' jobs
// with timed policies and stall attribution.
func tracedServe(tr *tracer, rep *report, untraced, traced []*window) error {
	layers, shares := tr.layers()
	rep.info["cpu_share_by_package"] = shares
	hooks := &hookSet{}
	var (
		fresh                           []*servedJob
		submit, lag, exec, asm, live    []float64
		load                            []float64
		execSum, wall                   float64
		rejected                        int
		counters                        = map[string]float64{}
		reqUntraced, wallUntraced, reqs float64
	)
	for _, w := range untraced {
		reqUntraced += float64(w.requests)
		wallUntraced += w.wall
	}
	for _, w := range traced {
		fresh = append(fresh, w.fresh...)
		submit = append(submit, w.submitMS...)
		lag = append(lag, w.lagMS...)
		wall += w.wall
		reqs += float64(w.requests)
		rejected += w.rejected
		for k, v := range w.counters {
			counters[k] += v
		}
	}
	ms, err := verify(&rep.checks, fresh, hooks)
	if err != nil {
		return err
	}
	for k, v := range hooks.layers() {
		layers[k] = v
	}
	for k, v := range simLayers(ms) {
		layers[k] = v
	}
	for _, f := range fresh {
		exec = append(exec, f.execMS)
		execSum += f.execMS
		if !f.sasm {
			continue
		}
		prog := f.req.Programs[0]
		a, l, err := timeAsmLiveness(prog.Source)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := prog.Load(kernels.Limits{}); err != nil {
			return err
		}
		load = append(load, float64(time.Since(t).Microseconds())/1e3)
		asm, live = append(asm, a), append(live, l)
	}
	for k, v := range map[string]float64{
		"runner.job_ms_p50":       median(exec),
		"runner.job_ms_max":       sorted(append(exec, 0))[len(exec)],
		"runner.worker_busy_frac": execSum / 1e3 / (serveClients * wall),
		"runner.tail_s":           0, // a closed loop has no batch to drain
		"runner.cache_hit_frac": ratio(counters["finereg_engine_cache_hits_total"],
			counters["finereg_engine_cache_hits_total"]+counters["finereg_engine_jobs_executed_total"]),
		"gpu.run_self_ms":         execSum - layers["regfile.hooks_ms"] - layers["core.hooks_ms"],
		"serve.submit_ms_p50":     median(submit),
		"serve.finish_lag_ms_p50": median(lag),
		"serve.coalesced_frac":    ratio(counters["finereg_serve_coalesced_total"], counters["finereg_serve_submissions_total"]),
		"serve.shed_total":        counters["finereg_serve_shed_total"],
		"serve.rejected_400":      float64(rejected),
		"workload.load_ms_p50":    median(load),
		"isa.assemble_us_p50":     median(asm),
		"liveness.analyze_us_p50": median(live),
		"trace.overhead_frac":     (reqUntraced/wallUntraced)/(reqs/wall) - 1,
	} {
		layers[k] = v
	}
	rep.layers = layers
	return nil
}
