package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/serve"
)

// serveWorkload describes an open-loop serving workload.
type serveWorkload struct {
	backends int
	// limit is the p99 latency a ladder rate must meet.
	limit time.Duration
	// nominal is the rate the latency metrics are measured at.
	nominal float64
	// newSource returns the request stream and the requests solved during
	// set-up, before measuring.
	newSource func(seed int64) (source, []*reqSpec, error)
}

// Serving workloads. The latency limits and nominal rates are recorded in
// BENCHMARK.json's workload descriptions and in README.md.
var (
	serveFreshWorkload = serveWorkload{
		backends: 1,
		limit:    100 * time.Millisecond,
		nominal:  45,
		newSource: func(seed int64) (source, []*reqSpec, error) {
			return newChainSource(seed), nil, nil
		},
	}
	serveMixedWorkload = serveWorkload{
		backends: 2,
		limit:    100 * time.Millisecond,
		nominal:  150,
		newSource: func(seed int64) (source, []*reqSpec, error) {
			s, err := newMixedSource(seed)
			if err != nil {
				return nil, nil, err
			}
			return s, s.corpus, nil
		},
	}
)

func runServeFresh(rc runConfig) (*outcome, error) { return runServe(rc, serveFreshWorkload) }
func runServeMixed(rc runConfig) (*outcome, error) { return runServe(rc, serveMixedWorkload) }

// Time split of a serving run: the nominal phase takes nominalShare of
// --seconds; the capacity search takes the rest, first a closed-loop probe
// of probeSeconds, then ladderRungs equal rungs. A traced run replays the
// nominal phase instead of searching.
const (
	nominalShare = 0.6
	probeSeconds = 1.5
	// probeChunk is how many requests each connection sends per probe
	// chunk.
	probeChunk    = 16
	ladderRungs   = 5
	ladderStart   = 0.95
	ladderStep    = 1.06
	ladderMinStep = 1.02
)

// prepared is one set-up: the request stream, the nominal phase's
// requests, and a booted, warmed stack.
type prepared struct {
	src     source
	warm    []*reqSpec
	nominal []*reqSpec
	st      *stack
}

func runServe(rc runConfig, w serveWorkload) (*outcome, error) {
	out := newOutcome()
	conns := runtime.NumCPU()
	nNominal := int(w.nominal * nominalShare * rc.seconds)
	if nNominal < 1 {
		nNominal = 1
	}
	boots := 0
	boot := func(tr *tracer) (*stack, error) {
		boots++
		return bootStack(filepath.Join(rc.dir, fmt.Sprintf("stack%d", boots)), w.backends, tr)
	}
	client := newClient(conns)
	defer client.CloseIdleConnections()

	setup := func() (*prepared, error) {
		src, warm, err := w.newSource(rc.seed)
		if err != nil {
			return nil, err
		}
		nominal, err := take(src, nNominal)
		if err != nil {
			return nil, err
		}
		st, err := boot(nil)
		if err != nil {
			return nil, err
		}
		if err := warmUp(client, st, warm, conns, out); err != nil {
			st.close()
			return nil, err
		}
		return &prepared{src: src, warm: warm, nominal: nominal, st: st}, nil
	}
	p, setupS, err := medianSetup(setup, func(p *prepared) { p.st.close() })
	if err != nil {
		return nil, err
	}

	watch := watchRSS()
	before := readRuntime()
	cpuBefore, err := processCPU()
	if err != nil {
		p.st.close()
		return nil, err
	}
	nom := openLoop(client, p.st.url, p.nominal, p.nominal[0].idx, w.nominal, conns, nil)
	cpuAfter, err := processCPU()
	if err != nil {
		p.st.close()
		return nil, err
	}
	cost := costSince(before, int64(len(p.nominal)))
	rss, err := watch.end()
	if err != nil {
		p.st.close()
		return nil, err
	}
	ns := summarize(nom, p.nominal, w.limit, out)
	requireAnswered(ns, len(p.nominal), "nominal", out)
	checkSpots(p.nominal, nom, out)

	if !rc.trace {
		maxRate, err := ladder(client, p, w, rc, conns, out)
		p.st.close()
		if err != nil {
			return nil, err
		}
		m := out.metrics
		m["setup_s"] = setupS
		// At a fixed offered rate the answered rate per wall second is the
		// generator's, not the server's; answers per CPU-second the
		// process spent are what a faster server raises.
		m["solves_per_s"] = ratio(float64(ns.ok), (cpuAfter - cpuBefore).Seconds())
		m["max_rate_qps"] = maxRate
		m["latency_p50_ms"] = ns.p50
		m["latency_p95_ms"] = ns.p95
		m["latency_p99_ms"] = ns.p99
		m["objective"] = ns.objective
		m["peak_rss_mb"] = rss
		return out, nil
	}
	p.st.close()

	m := out.metrics
	m["runtime.allocs_per_op"] = cost.allocsPerOp
	m["runtime.alloc_mb_per_op"] = cost.allocMBPerOp
	m["runtime.gc_cpu_fraction"] = cost.gcCPUFraction
	m["runtime.peak_rss_mb"] = rss
	m["loadgen.lag_p99_ms"] = ns.lagP99
	if err := tracedServe(rc, w, p, boot, client, conns, ns.p50, out); err != nil {
		return nil, err
	}
	m["loadgen.error_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	zeroMetrics(m, libraryOnlyMetrics)
	return out, nil
}

// libraryOnlyMetrics come from a solve's Stats and the assembly and
// evaluation replays, which only the library workloads observe; they read 0
// on serving ones.
var libraryOnlyMetrics = []string{
	"core.pipeline_ms", "core.greedy_ms", "core.greedy_moves", "core.parts",
	"core.assemble_ms", "mec.evaluate_ms",
}

// warmUp solves the set-up requests, conns at a time, and checks each
// answer.
func warmUp(client *http.Client, st *stack, warm []*reqSpec, conns int, out *outcome) error {
	samples := make([]sample, len(warm))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(warm); i += conns {
				send(client, st.url, warm[i], &samples[i], nil)
			}
		}(c)
	}
	wg.Wait()
	for i, r := range warm {
		s := &samples[i]
		if s.status != http.StatusOK {
			return fmt.Errorf("warm-up request failed: status %d %s", s.status, s.errText)
		}
		if _, err := checkAnswer(r, s.body); err != nil {
			out.problem("warm-up answer: %v", err)
		}
	}
	return nil
}

// phaseSummary is what one phase measured.
type phaseSummary struct {
	ok       int
	p50, p95 float64
	// p99 is the median of the three thirds' p99, as every reported
	// percentile is; it decides whether a ladder rung passes, so one stall
	// in a third of a rung does not fail it.
	p99               float64
	objective, lagP99 float64
	errorRatio        float64
	pass              bool
}

// summarize checks every answer of a phase, counts attempts and failures
// into out, and reports the phase's latency percentiles (a failed request
// counts as the client timeout, so it misses any limit).
func summarize(ph *phase, reqs []*reqSpec, limit time.Duration, out *outcome) phaseSummary {
	var ps phaseSummary
	var lags, lats, objs []float64
	sent, failed := 0, 0
	for i := range ph.samples {
		s := &ph.samples[i]
		if !s.sent {
			continue
		}
		sent++
		if s.onTime {
			lags = append(lags, ms(s.lag))
		}
		lat := ms(s.latency())
		ok := s.status == http.StatusOK && s.errText == ""
		if ok {
			obj, err := checkAnswer(reqs[i], s.body)
			if err != nil {
				out.problem("request %d: %v", reqs[i].idx, err)
				ok = false
			} else {
				objs = append(objs, obj)
			}
		}
		if !ok {
			failed++
			lat = ms(clientTimeout)
		}
		lats = append(lats, lat)
	}
	out.attempted += int64(sent)
	out.failed += int64(failed)
	ps.ok = sent - failed
	ps.p50 = windowedQuantile(lats, 0.5)
	ps.p95 = windowedQuantile(lats, 0.95)
	ps.p99 = windowedQuantile(lats, 0.99)
	ps.objective = mean(objs)
	ps.lagP99 = quantile(lags, 0.99)
	ps.errorRatio = ratio(float64(failed), float64(sent))
	ps.pass = !ph.aborted && sent == len(reqs) && ps.errorRatio <= 0.01 &&
		ps.p99 <= ms(limit) && !backlogGrew(ph, limit)
	return ps
}

// requireAnswered fails the run unless every one of a phase's n requests
// was sent and answered correctly. Only the nominal phase (and its traced
// replay) must be error-free; ladder rungs above capacity may fail.
func requireAnswered(ps phaseSummary, n int, name string, out *outcome) {
	if ps.ok < n {
		out.problem("%s phase: %d of %d requests failed or were never sent", name, n-ps.ok, n)
	}
}

// backlogGrew reports whether the last tenth of a phase's requests were
// sent later than the latency limit after their due time.
func backlogGrew(ph *phase, limit time.Duration) bool {
	n := len(ph.samples)
	var delays []float64
	for i := n - n/10 - 1; i < n; i++ {
		if i >= 0 && ph.samples[i].sent {
			delays = append(delays, ms(ph.samples[i].start.Sub(ph.samples[i].due)))
		}
	}
	return quantile(delays, 0.5) > ms(limit)
}

// ladder estimates the highest rate that meets the workload's limit. A
// closed-loop probe first measures the stack's saturated throughput: the
// generator holds at most conns requests in flight, so the knee of the
// latency curve lies just below it. An up-down staircase then starts at
// ladderStart of that throughput and steps the rate up by ladderStep after
// a passing rung and down after a failing one, taking the square root of
// the step factor at every reversal (never below ladderMinStep), so the
// rungs close in on the rate a rung passes half the time. The estimate is
// the geometric mean of the rates from the first reversal on, including
// the rate the next rung would have tried. Without a reversal it is that
// next rate alone: a bound rather than an estimate.
func ladder(client *http.Client, p *prepared, w serveWorkload, rc runConfig, conns int, out *outcome) (float64, error) {
	saturated, err := probe(client, p, w, conns, out)
	if err != nil {
		return 0, err
	}
	rungSeconds := ((1-nominalShare)*rc.seconds - probeSeconds) / ladderRungs
	rate := math.Max(ladderStart*saturated, 1/rungSeconds)
	step := ladderStep
	var rates []float64
	reversed, prevPass := false, false
	for k := 0; k < ladderRungs; k++ {
		reqs, err := take(p.src, int(math.Max(1, rate*rungSeconds)))
		if err != nil {
			return 0, err
		}
		ph := openLoop(client, p.st.url, reqs, reqs[0].idx, rate, conns, nil)
		ps := summarize(ph, reqs, w.limit, out)
		checkSpots(reqs, ph, out)
		fmt.Fprintf(os.Stderr, "rung %d: %.1f/s achieved %.1f/s p50 %.2f ms p99 %.2f ms errors %.3f pass %v\n",
			k, rate, float64(ps.ok)/ph.wall.Seconds(), ps.p50, ps.p99, ps.errorRatio, ps.pass)
		if k > 0 && ps.pass != prevPass {
			reversed = true
			step = math.Max(math.Sqrt(step), ladderMinStep)
		}
		if reversed {
			rates = append(rates, rate)
		}
		prevPass = ps.pass
		if ps.pass {
			rate *= step
		} else {
			rate /= step
		}
	}
	if !reversed {
		return rate, nil
	}
	rates = append(rates, rate)
	var logSum float64
	for _, r := range rates {
		logSum += math.Log(r)
	}
	return math.Exp(logSum / float64(len(rates))), nil
}

// probe measures the stack's saturated throughput: for probeSeconds, each
// of conns connections sends its next request as soon as its previous one
// is answered. It sends chunks of probeChunk requests per connection, so
// that a chunk never falls far enough behind its schedule to be abandoned
// and every mutation's base has been answered before the mutation is sent.
func probe(client *http.Client, p *prepared, w serveWorkload, conns int, out *outcome) (float64, error) {
	var answered int
	var wall time.Duration
	for wall.Seconds() < probeSeconds {
		reqs, err := take(p.src, probeChunk*conns)
		if err != nil {
			return 0, err
		}
		ph := openLoop(client, p.st.url, reqs, reqs[0].idx, math.Inf(1), conns, nil)
		ps := summarize(ph, reqs, w.limit, out)
		checkSpots(reqs, ph, out)
		answered += ps.ok
		wall += ph.wall
	}
	saturated := float64(answered) / wall.Seconds()
	fmt.Fprintf(os.Stderr, "probe: %d answers in %.2f s, %.1f/s\n", answered, wall.Seconds(), saturated)
	return saturated, nil
}

// checkAnswer decodes one 200 body and validates the decision against the
// request's graph, returning the user's E+T. An empty or undecodable body
// is an error.
func checkAnswer(r *reqSpec, body []byte) (float64, error) {
	var resp serve.MutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("undecodable 200 body (%d bytes): %v", len(body), err)
	}
	if resp.Graph != r.fp {
		return 0, fmt.Errorf("answer is for graph %.12s, want %.12s", resp.Graph, r.fp)
	}
	if r.mutate() && resp.Base != r.baseFp {
		return 0, fmt.Errorf("mutate answer names base %.12s, want %.12s", resp.Base, r.baseFp)
	}
	g := r.graph
	side := make(map[graph.NodeID]bool, len(resp.Remote))
	var remoteWork float64
	for i, id := range resp.Remote {
		if i > 0 && id <= resp.Remote[i-1] {
			return 0, fmt.Errorf("remote nodes not strictly ascending at %d", i)
		}
		w, err := g.NodeWeight(id)
		if err != nil {
			return 0, fmt.Errorf("remote node %d not in the graph", id)
		}
		remoteWork += w
		side[id] = true
	}
	total := g.TotalNodeWeight()
	c := resp.Cost
	vals := []float64{resp.LocalWork, resp.RemoteWork, resp.CutWeight, resp.BatchObjective,
		c.LocalTime, c.RemoteTime, c.WaitTime, c.TransmissionTime, c.LocalEnergy, c.TransmissionEnergy}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return 0, fmt.Errorf("non-finite or negative value %v in decision", v)
		}
	}
	switch {
	case !sameFloat(resp.RemoteWork, remoteWork):
		return 0, fmt.Errorf("remote work %v, remote nodes weigh %v", resp.RemoteWork, remoteWork)
	case !sameFloat(resp.LocalWork, total-remoteWork):
		return 0, fmt.Errorf("local work %v, local nodes weigh %v", resp.LocalWork, total-remoteWork)
	case !sameFloat(resp.CutWeight, g.CutWeight(side)):
		return 0, fmt.Errorf("cut weight %v, placement cuts %v", resp.CutWeight, g.CutWeight(side))
	case resp.BatchUsers < 1 || resp.ActiveUsers > resp.BatchUsers:
		return 0, fmt.Errorf("batch of %d users with %d active", resp.BatchUsers, resp.ActiveUsers)
	}
	return c.LocalEnergy + c.TransmissionEnergy + c.LocalTime + c.RemoteTime + c.TransmissionTime, nil
}

// checkSpots re-solves each sampled mutation's graph cold with core.Solve
// and requires the served answer to match it exactly: the incremental path
// promises bit-identical results.
func checkSpots(reqs []*reqSpec, ph *phase, out *outcome) {
	for i, r := range reqs {
		s := &ph.samples[i]
		if !r.spot || !s.sent || s.status != http.StatusOK {
			continue
		}
		var resp serve.MutateResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			continue // already reported by checkAnswer
		}
		sol, err := core.Solve(context.Background(), []core.UserInput{{Graph: r.graph}}, core.Options{Params: mec.Defaults()})
		if err != nil {
			out.problem("spot check %d: cold solve: %v", r.idx, err)
			continue
		}
		want := make([]graph.NodeID, 0, len(sol.Placements[0].Remote))
		for id := range sol.Placements[0].Remote {
			want = append(want, id)
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		same := len(want) == len(resp.Remote)
		for k := 0; same && k < len(want); k++ {
			same = want[k] == resp.Remote[k]
		}
		if !same || resp.BatchObjective != sol.Eval.Objective {
			out.problem("spot check %d: mutate answer (objective %v, %d remote) differs from cold solve (objective %v, %d remote)",
				r.idx, resp.BatchObjective, len(resp.Remote), sol.Eval.Objective, len(want))
		}
	}
}

// tracedServe boots a fresh traced stack, replays the nominal phase's
// requests at the nominal rate, and derives the per-layer metrics from the
// spans, the servers' counters and offline replays of the sent bodies.
func tracedServe(rc runConfig, w serveWorkload, p *prepared, boot func(*tracer) (*stack, error), client *http.Client, conns int, untracedP50 float64, out *outcome) error {
	tr := newTracer()
	st, err := boot(tr)
	if err != nil {
		return err
	}
	if err := warmUp(client, st, p.warm, conns, out); err != nil {
		st.close()
		return err
	}
	tr.reset()
	statsBefore := st.serveStats()
	rtBefore, err := st.routerStatus(client)
	if err != nil {
		st.close()
		return err
	}
	journalBefore := journalBytes(st)

	// Sample the batcher queue depth while the pass runs.
	var depths []float64
	stopSampling := make(chan struct{})
	var sampling sync.WaitGroup
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-t.C:
				depths = append(depths, float64(st.queueDepth()))
			}
		}
	}()
	watch := watchRSS()
	before := readRuntime()
	ph := openLoop(client, st.url, p.nominal, p.nominal[0].idx, w.nominal, conns, tr)
	cost := costSince(before, int64(len(p.nominal)))
	close(stopSampling)
	sampling.Wait()
	statsAfter := st.serveStats()
	rtAfter, err := st.routerStatus(client)
	if err != nil {
		st.close()
		return err
	}
	journalAfter := journalBytes(st)
	st.close()
	rss, err := watch.end()
	if err != nil {
		return err
	}
	ts := summarize(ph, p.nominal, w.limit, out)
	requireAnswered(ts, len(p.nominal), "traced", out)

	spans := tr.snapshot()
	linkServingSpans(spans)
	m := out.metrics
	byName := func(name, tag string) []float64 {
		var xs []float64
		for i := range spans {
			if spans[i].Name == name && (tag == "" || spans[i].Tag == tag) {
				xs = append(xs, ms(spans[i].dur()))
			}
		}
		return xs
	}
	backend := byName("serve.handler", "")
	m["serve.handler_p50_ms"] = quantile(backend, 0.5)
	m["serve.handler_p99_ms"] = quantile(backend, 0.99)
	m["serve.hit_handler_p50_ms"] = quantile(byName("serve.handler", "hit"), 0.5)
	m["serve.miss_handler_p50_ms"] = quantile(byName("serve.handler", "miss"), 0.5)
	routerLat := byName("router.handler", "")
	m["router.handler_p50_ms"] = quantile(routerLat, 0.5)
	if len(routerLat) > 0 {
		m["router.overhead_p50_ms"] = m["router.handler_p50_ms"] - m["serve.handler_p50_ms"]
	} else {
		m["router.overhead_p50_ms"] = 0
	}
	appends := byName("durable.append", "")
	for i := range appends {
		appends[i] *= 1000
	}
	m["durable.appends"] = float64(len(appends))
	m["durable.append_p50_us"] = quantile(appends, 0.5)
	m["durable.append_p99_us"] = quantile(appends, 0.99)
	m["durable.bytes_per_request"] = ratio(float64(journalAfter-journalBefore), float64(len(p.nominal)))

	d := func(a, b uint64) float64 { return float64(b - a) }
	sb, sa := statsBefore, statsAfter
	m["serve.cache_hit_ratio"] = ratio(d(sb.Cache.Hits, sa.Cache.Hits), d(sb.Cache.Hits, sa.Cache.Hits)+d(sb.Cache.Misses, sa.Cache.Misses))
	m["serve.body_hit_ratio"] = ratio(d(sb.Cache.BodyHits, sa.Cache.BodyHits), d(sb.Requests, sa.Requests))
	interned := float64(sa.GraphCache.Size-sb.GraphCache.Size) + d(sb.GraphCache.Evictions, sa.GraphCache.Evictions)
	reused := d(sb.GraphCache.Reused, sa.GraphCache.Reused)
	m["serve.graph_reuse_ratio"] = ratio(reused, reused+interned)
	m["serve.dedup_ratio"] = ratio(d(sb.Deduped, sa.Deduped), d(sb.Requests, sa.Requests))
	m["serve.batch_users_mean"] = ratio(d(sb.Batch.Users, sa.Batch.Users), d(sb.Batch.Rounds, sa.Batch.Rounds))
	m["serve.fused_width_mean"] = ratio(d(sb.Batch.FusedGraphs, sa.Batch.FusedGraphs), d(sb.Batch.FusedRounds, sa.Batch.FusedRounds))
	m["serve.queue_depth_mean"] = mean(depths)
	incremental := d(sb.Incremental.DeltaSolves, sa.Incremental.DeltaSolves) - d(sb.Incremental.ColdFallbacks, sa.Incremental.ColdFallbacks)
	m["serve.incremental_ratio"] = ratio(incremental, d(sb.Incremental.Mutates, sa.Incremental.Mutates))
	m["serve.lanczos_iters_saved"] = d(sb.Incremental.LanczosItersSaved, sa.Incremental.LanczosItersSaved)
	m["router.hedges_fired"] = d(rtBefore.Hedges.Fired, rtAfter.Hedges.Fired)
	m["router.failovers"] = d(rtBefore.Failovers, rtAfter.Failovers)

	m["core.ledger_coverage"] = serverShare(spans)
	m["trace.overhead_ratio"] = ratio(ts.p50, untracedP50)
	m["trace.allocs_per_op"] = cost.allocsPerOp
	m["trace.alloc_mb_per_op"] = cost.allocMBPerOp
	m["trace.gc_cpu_fraction"] = cost.gcCPUFraction
	m["trace.peak_rss_mb"] = rss

	if err := replaySent(tr, p.nominal, m); err != nil {
		return err
	}
	return writeSpans(spanPath(rc), tr.snapshot())
}

// serverShare is the summed self time of the server-side spans (router and
// backend handlers, journal appends) over the summed client time: the share
// of each request's latency spent inside the servers rather than in the
// client, the sockets and the generator.
func serverShare(spans []span) float64 {
	self := selfTimes(spans)
	var inside, client time.Duration
	for i := range spans {
		if spans[i].Name == "client" {
			client += spans[i].dur()
		} else if spans[i].Parent >= 0 {
			inside += self[i]
		}
	}
	return ratio(float64(inside), float64(client))
}

func journalBytes(st *stack) int64 {
	var n int64
	for _, b := range st.backends {
		n += b.journal.bytes.Load()
	}
	return n
}

// linkServingSpans sets each serving span's parent: handler spans that
// carry a request index hang under that request's client span; backend
// handler spans reached through the router hang under the router span that
// encloses them; journal appends under the enclosing handler span of the
// same backend.
func linkServingSpans(spans []span) {
	clientOf := make(map[int64]int32)
	for i := range spans {
		if spans[i].Name == "client" {
			clientOf[spans[i].link] = int32(i)
		}
	}
	enclosing := func(i int, name, where string) int32 {
		best := int32(-1)
		for j := range spans {
			c := &spans[j]
			if c.Name != name || (where != "" && c.Where != where) {
				continue
			}
			if c.Start <= spans[i].Start && spans[i].End <= c.End && (best < 0 || c.Start > spans[best].Start) {
				best = int32(j)
			}
		}
		return best
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "router.handler":
			if c, ok := clientOf[s.link]; ok {
				s.Parent = c
			}
		case "serve.handler":
			if c, ok := clientOf[s.link]; ok {
				s.Parent = c
			} else {
				s.Parent = enclosing(i, "router.handler", "")
			}
		case "durable.append":
			s.Parent = enclosing(i, "serve.handler", s.Where)
		}
	}
}

// replaySent times the request-path layers offline on the bodies the
// traced pass sent: request decode and graph fingerprinting on solve
// bodies, CSR.Patch on mutations, and the solver pipeline stages on a
// sample of the distinct graphs.
func replaySent(tr *tracer, reqs []*reqSpec, m map[string]float64) error {
	var decode, fingerprint, patch []float64
	seen := make(map[string]bool)
	var distinct []*graph.Graph
	for _, r := range reqs {
		if r.mutate() {
			c := r.base.Compile()
			start := time.Now()
			_, _, err := c.Patch(r.delta)
			patch = append(patch, us(time.Since(start)))
			if err != nil {
				return fmt.Errorf("replay patch: %w", err)
			}
			continue
		}
		start := time.Now()
		req, err := serve.DecodeSolveRequest(bytes.NewReader(r.body), serve.DecodeLimits{})
		decode = append(decode, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		start = time.Now()
		fp, err := req.Graph.Fingerprint()
		fingerprint = append(fingerprint, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("replay fingerprint: %w", err)
		}
		if !seen[fp] && len(distinct) < 64 {
			seen[fp] = true
			distinct = append(distinct, r.graph)
		}
	}
	m["serve.decode_us"] = quantile(decode, 0.5)
	m["graph.fingerprint_us"] = quantile(fingerprint, 0.5)
	m["graph.patch_us"] = quantile(patch, 0.5)

	var total replayCounts
	for _, g := range distinct {
		root := tr.begin("replay", -1)
		c, err := replayPipeline(tr, root, g, 0)
		tr.end(root)
		if err != nil {
			return err
		}
		total.add(c)
	}
	per := ledger(tr.snapshot(), "replay")
	m["graph.compile_ms"] = quantile(per["graph.compile"], 0.5)
	m["lpa.compress_ms"] = quantile(per["lpa.compress"], 0.5)
	m["spectral.bisect_ms"] = quantile(per["spectral.bisect"], 0.5)
	m["spectral.components_cut"] = ratio(float64(total.cuts), float64(len(distinct)))
	m["eigen.dense_share"] = ratio(float64(total.dense), float64(total.cuts))
	m["lpa.compression_ratio"] = ratio(float64(total.nodesAfter), float64(total.nodesBefore))
	return nil
}
