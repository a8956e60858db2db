package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/lpa"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
	"copmecs/internal/spectral"
)

// denseCutoff mirrors eigen.FiedlerOptions' default: bisections of at most
// this many super-nodes take the dense eigensolver, larger ones Lanczos.
const denseCutoff = 96

// libWorkload is a closed-loop library workload: one caller solving the
// inputs in rotation.
type libWorkload struct {
	inputs [][]core.UserInput
	params mec.Params
	// opts are the options the solve runs with; the traced pass replays the
	// pipeline stages with the same settings.
	opts core.Options
	// session is the warmed session for warm workloads, nil for cold ones.
	session *core.Session
}

func (w *libWorkload) solve(ctx context.Context, users []core.UserInput) (*core.Solution, error) {
	if w.session != nil {
		return w.session.Solve(ctx, users)
	}
	return core.Solve(ctx, users, w.opts)
}

// subSeed derives an independent seed for one input stream from the run
// seed, so every random choice of a run follows from --seed alone.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() >> 1)
}

// tableIGraph generates one graph of Table I row idx.
func tableIGraph(row int, seed int64) (*graph.Graph, error) {
	cfg, err := netgen.TableIConfig(row, seed)
	if err != nil {
		return nil, err
	}
	return netgen.Generate(cfg)
}

// fig9Graphs is how many Table I row-4 graphs fig9-cold rotates over:
// enough that the per-graph spread of solve times averages out across
// seeds.
const fig9Graphs = 24

// runFig9Cold is Fig. 9's "ours-serial": package-level core.Solve with one
// worker on n=5000 graphs, no session, so every solve compiles, compresses
// and cuts from scratch.
func runFig9Cold(rc runConfig) (*outcome, error) {
	setup := func() (*libWorkload, error) {
		w := &libWorkload{
			params: mec.Defaults(),
			opts:   core.Options{Engine: core.SpectralEngine{}, Workers: 1},
		}
		for i := 0; i < fig9Graphs; i++ {
			g, err := tableIGraph(4, subSeed(rc.seed, "fig9", i))
			if err != nil {
				return nil, err
			}
			// Compiling once finishes the graph's lazy sorted views, which
			// every later solve reuses.
			g.Compile()
			w.inputs = append(w.inputs, []core.UserInput{{Graph: g}})
		}
		return w, nil
	}
	return runLibrary(rc, setup)
}

// Multi-user workload shape: populations of multiUsers users drawn from
// multiGraphs Table I n=1000 graphs.
const (
	multiUsers       = 512
	multiGraphs      = 8
	multiPopulations = 4
)

// runMultiuserWarm is the Figs. 6–8 setting on a warmed core.Session: the
// per-graph pipeline is cached, so each solve is instantiation, Algorithm
// 2's greedy and the model evaluation over 512 users.
func runMultiuserWarm(rc runConfig) (*outcome, error) {
	setup := func() (*libWorkload, error) {
		params := mec.Defaults()
		params.ServerCapacity = params.DeviceCompute * 5000
		w := &libWorkload{params: params, opts: core.Options{Params: params}}
		pool := make([]*graph.Graph, multiGraphs)
		for i := range pool {
			g, err := tableIGraph(2, subSeed(rc.seed, "multiuser", i))
			if err != nil {
				return nil, err
			}
			pool[i] = g
		}
		rng := rand.New(rand.NewSource(subSeed(rc.seed, "population", 0)))
		for p := 0; p < multiPopulations; p++ {
			users := make([]core.UserInput, multiUsers)
			for u := range users {
				users[u] = core.UserInput{Graph: pool[rng.Intn(len(pool))]}
			}
			w.inputs = append(w.inputs, users)
		}
		w.session = core.NewSession(w.opts)
		for _, users := range w.inputs {
			if _, err := w.session.Solve(context.Background(), users); err != nil {
				return nil, fmt.Errorf("multiuser-warm warm-up: %w", err)
			}
		}
		return w, nil
	}
	return runLibrary(rc, setup)
}

// untracedShare is the part of --seconds a traced library run spends on
// its untraced baseline pass; the traced pass takes the rest.
const untracedShare = 0.4

// runLibrary measures a library workload: an untraced closed loop for the
// end-to-end metrics, then (with --trace 1) a traced replay for the ledger.
func runLibrary(rc runConfig, setup func() (*libWorkload, error)) (*outcome, error) {
	out := newOutcome()
	w, setupS, err := medianSetup(setup, nil)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	v := newVerifier(w)

	untraced := rc.seconds
	if rc.trace {
		untraced = untracedShare * rc.seconds
	}
	watch := watchRSS()
	before := readRuntime()
	var lat []float64
	var spent time.Duration
	deadline := time.Now().Add(time.Duration(untraced * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		in := i % len(w.inputs)
		start := time.Now()
		sol, err := w.solve(ctx, w.inputs[in])
		d := time.Since(start)
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("solve %d: %v", i, err)
			continue
		}
		spent += d
		lat = append(lat, ms(d))
		v.check(out, in, sol)
	}
	cost := costSince(before, int64(len(lat)))
	rss, err := watch.end()
	if err != nil {
		return nil, err
	}
	solveP50 := windowedQuantile(lat, 0.5)

	if !rc.trace {
		rate := ratio(float64(len(lat)), spent.Seconds())
		out.metrics["setup_s"] = setupS
		out.metrics["solves_per_s"] = rate
		// One closed-loop caller runs the library at capacity, so the
		// highest sustainable rate is its throughput.
		out.metrics["max_rate_qps"] = rate
		out.metrics["latency_p50_ms"] = solveP50
		out.metrics["latency_p95_ms"] = windowedQuantile(lat, 0.95)
		out.metrics["latency_p99_ms"] = windowedQuantile(lat, 0.99)
		out.metrics["objective"] = v.meanObjective()
		out.metrics["peak_rss_mb"] = rss
		return out, nil
	}

	m := out.metrics
	m["runtime.allocs_per_op"] = cost.allocsPerOp
	m["runtime.alloc_mb_per_op"] = cost.allocMBPerOp
	m["runtime.gc_cpu_fraction"] = cost.gcCPUFraction
	m["runtime.peak_rss_mb"] = rss
	if err := tracedLibrary(rc, w, v, out, solveP50); err != nil {
		return nil, err
	}
	m["loadgen.error_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	zeroMetrics(m, servingOnlyMetrics)
	return out, nil
}

// servingOnlyMetrics are the per-layer metrics of layers a library
// workload never calls; they read 0 there.
var servingOnlyMetrics = []string{
	"graph.fingerprint_us", "graph.patch_us", "loadgen.lag_p99_ms",
	"serve.handler_p50_ms", "serve.handler_p99_ms", "serve.hit_handler_p50_ms",
	"serve.miss_handler_p50_ms", "serve.decode_us", "serve.cache_hit_ratio",
	"serve.body_hit_ratio", "serve.graph_reuse_ratio", "serve.dedup_ratio",
	"serve.batch_users_mean", "serve.fused_width_mean", "serve.queue_depth_mean",
	"serve.incremental_ratio", "serve.lanczos_iters_saved",
	"durable.append_p50_us", "durable.append_p99_us", "durable.appends",
	"durable.bytes_per_request",
	"router.handler_p50_ms", "router.overhead_p50_ms", "router.hedges_fired",
	"router.failovers",
}

func zeroMetrics(m map[string]float64, names []string) {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			m[n] = 0
		}
	}
}

// tracedLibrary replays each solve stage by stage through the public entry
// points, inside one root span per solve:
//
//	graph.compile → lpa.compress → spectral.bisect per compressed component
//	→ core.solve (its Stats give core.pipeline and core.greedy child spans)
//	→ core.assemble → mec.evaluate on the returned placements.
//
// A session-backed workload replays the pipeline stages only for graphs
// its session has not cached, which after warm-up is none of them.
func tracedLibrary(rc runConfig, w *libWorkload, v *verifier, out *outcome, untracedP50 float64) error {
	ctx := context.Background()
	tr := newTracer()
	watch := watchRSS()
	before := readRuntime()
	var solveSpans []float64
	var moves, parts, nodesBefore, nodesAfter []float64
	var replayed replayCounts
	solves := 0
	deadline := time.Now().Add(time.Duration((1 - untracedShare) * rc.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		in := i % len(w.inputs)
		users := w.inputs[in]
		root := tr.begin("solve", -1)
		if w.session == nil {
			seen := make(map[*graph.Graph]bool)
			for _, u := range users {
				if seen[u.Graph] {
					continue
				}
				seen[u.Graph] = true
				c, err := replayPipeline(tr, root, u.Graph, w.opts.Workers)
				if err != nil {
					return err
				}
				replayed.add(c)
			}
		}
		cs := tr.begin("core.solve", root)
		sol, err := w.solve(ctx, users)
		tr.end(cs)
		out.attempted++
		if err != nil {
			tr.end(root)
			out.failed++
			out.problem("traced solve %d: %v", i, err)
			continue
		}
		addStatsSpans(tr, cs, sol.Stats)
		as := tr.begin("core.assemble", root)
		pls := assemblePlacements(users, sol.Parts)
		tr.end(as)
		es := tr.begin("mec.evaluate", root)
		ev, err := mec.EvaluatePlacements(w.params, sol.Placements)
		tr.end(es)
		tr.end(root)
		solves++
		if err != nil {
			out.problem("traced evaluate %d: %v", i, err)
		} else if !sameFloat(ev.Objective, sol.Eval.Objective) {
			out.problem("traced solve %d: evaluation %v != solution objective %v", i, ev.Objective, sol.Eval.Objective)
		}
		for u := range pls {
			if len(pls[u].Remote) != len(sol.Placements[u].Remote) {
				out.problem("traced solve %d: user %d: assembled %d remote nodes, solution has %d", i, u, len(pls[u].Remote), len(sol.Placements[u].Remote))
				break
			}
		}
		v.check(out, in, sol)
		cspan := tr.get(cs)
		solveSpans = append(solveSpans, ms(cspan.dur()))
		moves = append(moves, float64(sol.Stats.GreedyMoves))
		parts = append(parts, float64(sol.Stats.Parts))
		nodesBefore = append(nodesBefore, float64(sol.Stats.NodesBefore))
		nodesAfter = append(nodesAfter, float64(sol.Stats.NodesAfter))
	}
	cost := costSince(before, int64(solves))
	rss, err := watch.end()
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	if err := writeSpans(spanPath(rc), spans); err != nil {
		return err
	}

	perSolve := ledger(spans, "solve")
	m := out.metrics
	for _, layer := range []struct{ metric, span string }{
		{"graph.compile_ms", "graph.compile"},
		{"lpa.compress_ms", "lpa.compress"},
		{"spectral.bisect_ms", "spectral.bisect"},
		{"core.pipeline_ms", "core.pipeline"},
		{"core.greedy_ms", "core.greedy"},
		{"core.assemble_ms", "core.assemble"},
		{"mec.evaluate_ms", "mec.evaluate"},
	} {
		m[layer.metric] = quantile(perSolve[layer.span], 0.5)
	}
	coverage := libraryCoverage(perSolve, w.session != nil)
	n := float64(solves)
	m["spectral.components_cut"] = ratio(float64(replayed.cuts), n)
	m["eigen.dense_share"] = ratio(float64(replayed.dense), float64(replayed.cuts))
	m["lpa.compression_ratio"] = ratio(mean(nodesAfter), mean(nodesBefore))
	m["core.greedy_moves"] = mean(moves)
	m["core.parts"] = mean(parts)
	m["core.ledger_coverage"] = coverage
	m["trace.overhead_ratio"] = ratio(windowedQuantile(solveSpans, 0.5), untracedP50)
	m["trace.allocs_per_op"] = cost.allocsPerOp
	m["trace.alloc_mb_per_op"] = cost.allocMBPerOp
	m["trace.gc_cpu_fraction"] = cost.gcCPUFraction
	m["trace.peak_rss_mb"] = rss
	if solves == 0 {
		out.problem("traced pass completed no solve")
	} else if coverage < 0.9 || coverage > 1.1 {
		out.problem("ledger coverage %.3f outside [0.9, 1.1]", coverage)
	}
	return nil
}

// replayCounts is what one pipeline replay did: the bisections, how many
// of them were dense-eigensolver sized, and the node counts before and
// after compression.
type replayCounts struct {
	cuts, dense             int
	nodesBefore, nodesAfter int
}

func (c *replayCounts) add(o replayCounts) {
	c.cuts += o.cuts
	c.dense += o.dense
	c.nodesBefore += o.nodesBefore
	c.nodesAfter += o.nodesAfter
}

// replayPipeline runs graph g through the solver's pipeline stages with the
// options core.Solve passes them, one span per stage call.
func replayPipeline(tr *tracer, root int32, g *graph.Graph, workers int) (replayCounts, error) {
	var rc replayCounts
	s := tr.begin("graph.compile", root)
	c := g.Compile()
	tr.end(s)

	s = tr.begin("lpa.compress", root)
	cr, err := lpa.CompressCSR(c, lpa.Options{Workers: workers})
	tr.end(s)
	if err != nil {
		return rc, fmt.Errorf("replay compress: %w", err)
	}
	rc.nodesBefore, rc.nodesAfter = cr.NodesBefore, cr.NodesAfter

	// Each compressed component with at least two super-nodes is bisected
	// once (the paper's two-way split), over its own local CSR.
	var off, tgt []int32
	for ci := 0; ci+1 < len(cr.CompOff); ci++ {
		base, end := cr.CompOff[ci], cr.CompOff[ci+1]
		k := int(end - base)
		if k < 2 {
			continue
		}
		lo := cr.Off[base]
		off = append(off[:0], make([]int32, k+1)...)
		for li := 0; li <= k; li++ {
			off[li] = cr.Off[int(base)+li] - lo
		}
		nnz := int(off[k])
		tgt = append(tgt[:0], make([]int32, nnz)...)
		for e := 0; e < nnz; e++ {
			tgt[e] = cr.Tgt[int(lo)+e] - base
		}
		s = tr.begin("spectral.bisect", root)
		_, _, err := spectral.BisectCSR(off, tgt, cr.W[lo:int(lo)+nnz], spectral.Options{})
		tr.end(s)
		if err != nil {
			return rc, fmt.Errorf("replay bisect: %w", err)
		}
		rc.cuts++
		if k <= denseCutoff {
			rc.dense++
		}
	}
	return rc, nil
}

// assemblePlacements replays the placement assembly core does after its
// greedy pass: one mec.Placement per user whose Remote map holds the nodes
// of the user's offloaded parts. core has no public entry point for this
// step, so the replay builds the same values from the returned parts.
func assemblePlacements(users []core.UserInput, parts []core.Part) []mec.Placement {
	remote := make([]int, len(users))
	for _, p := range parts {
		if p.Remote {
			remote[p.User] += len(p.Nodes)
		}
	}
	pls := make([]mec.Placement, len(users))
	for i, u := range users {
		pls[i] = mec.Placement{
			Graph:         u.Graph,
			Remote:        make(map[graph.NodeID]bool, remote[i]),
			DeviceCompute: u.DeviceCompute,
			Bandwidth:     u.Bandwidth,
			PowerTransmit: u.PowerTransmit,
		}
	}
	for _, p := range parts {
		if p.Remote {
			for _, id := range p.Nodes {
				pls[p.User].Remote[id] = true
			}
		}
	}
	return pls
}

// libraryCoverage is the share of the traced core.solve time that the
// separately timed layers explain: the replayed pipeline stages (compile,
// compress, bisect), the solve's own greedy time, and the replayed
// placement assembly and evaluation. With a warm session there is no
// pipeline to replay — the solve only looks its cached parts up and
// instantiates them — so the solve's own PipelineTime stands for that
// stage. Nothing is derived from core.solve itself, so work the layers do
// not account for shows as coverage below 1.
func libraryCoverage(perSolve map[string][]float64, warm bool) float64 {
	layers := []string{"graph.compile", "lpa.compress", "spectral.bisect", "core.greedy", "core.assemble", "mec.evaluate"}
	if warm {
		layers = append(layers, "core.pipeline")
	}
	var explained float64
	for _, name := range layers {
		for _, x := range perSolve[name] {
			explained += x
		}
	}
	var solve float64
	for _, x := range perSolve["core.solve"] {
		solve += x
	}
	return ratio(explained, solve)
}

// addStatsSpans places the solve's own stage timings as children of its
// core.solve span: the pipeline (compression and cuts) first, then greedy.
func addStatsSpans(tr *tracer, parent int32, st core.Stats) {
	p := tr.get(parent)
	clip := func(t int64) int64 {
		if t > p.End {
			return p.End
		}
		return t
	}
	pipeEnd := clip(p.Start + int64(st.PipelineTime))
	tr.add(span{Parent: parent, Name: "core.pipeline", Start: p.Start, End: pipeEnd, link: -1})
	tr.add(span{Parent: parent, Name: "core.greedy", Start: pipeEnd, End: clip(pipeEnd + int64(st.GreedyTime)), link: -1})
}

// ledger sums, over the trees whose root span is named root, each layer's
// time per tree and returns, per span name, the per-tree sums in
// milliseconds, one entry per tree in recording order.
func ledger(spans []span, root string) map[string][]float64 {
	// A child may be recorded before its parent, so walk up each chain.
	rootOf := make([]int32, len(spans))
	for i := range spans {
		r := int32(i)
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		rootOf[i] = r
	}
	type key struct {
		root int32
		name string
	}
	sums := make(map[key]time.Duration)
	var roots []int32
	for i := range spans {
		if spans[rootOf[i]].Name != root {
			continue
		}
		if spans[i].Parent < 0 {
			roots = append(roots, int32(i))
			continue
		}
		sums[key{rootOf[i], spans[i].Name}] += spans[i].dur()
	}
	names := map[string]bool{}
	for k := range sums {
		names[k.name] = true
	}
	per := make(map[string][]float64)
	for name := range names {
		for _, r := range roots {
			per[name] = append(per[name], ms(sums[key{r, name}]))
		}
	}
	return per
}

func spanPath(rc runConfig) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", rc.workload, rc.seed))
}

func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// verifier checks every solution. The first solution of each input is
// checked in full — every node placed exactly once, a finite objective,
// and mec.EvaluatePlacements reproducing it — and its signature kept; a
// repeat solve of the same input must reproduce that signature exactly.
type verifier struct {
	w    *libWorkload
	sigs map[int]uint64
	objs map[int]float64
	idx  map[*graph.Graph]map[graph.NodeID]int32
}

func newVerifier(w *libWorkload) *verifier {
	return &verifier{
		w:    w,
		sigs: make(map[int]uint64),
		objs: make(map[int]float64),
		idx:  make(map[*graph.Graph]map[graph.NodeID]int32),
	}
}

// meanObjective is the mean E+T over the verified inputs, each counted
// once however often it was solved.
func (v *verifier) meanObjective() float64 {
	var xs []float64
	for in := range v.w.inputs {
		if obj, ok := v.objs[in]; ok {
			xs = append(xs, obj)
		}
	}
	return mean(xs)
}

func (v *verifier) check(out *outcome, in int, sol *core.Solution) {
	sig := signature(sol)
	if want, ok := v.sigs[in]; ok {
		if sig != want {
			out.problem("input %d: repeat solve differs from the verified solution", in)
		}
		return
	}
	if err := v.full(v.w.inputs[in], sol); err != nil {
		out.problem("input %d: %v", in, err)
		return
	}
	v.sigs[in] = sig
	v.objs[in] = sol.Eval.Objective
}

func (v *verifier) full(users []core.UserInput, sol *core.Solution) error {
	obj := sol.Eval.Objective
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		return fmt.Errorf("objective %v is not finite", obj)
	}
	if len(sol.Placements) != len(users) {
		return fmt.Errorf("%d placements for %d users", len(sol.Placements), len(users))
	}
	counts := make([][]uint8, len(users))
	remote := make([]int, len(users))
	for u, in := range users {
		if sol.Placements[u].Graph != in.Graph {
			return fmt.Errorf("user %d: placement is for another graph", u)
		}
		counts[u] = make([]uint8, in.Graph.NumNodes())
	}
	for pi, p := range sol.Parts {
		if p.User < 0 || p.User >= len(users) {
			return fmt.Errorf("part %d: user %d out of range", pi, p.User)
		}
		g := users[p.User].Graph
		index := v.index(g)
		pl := sol.Placements[p.User]
		for _, id := range p.Nodes {
			k, ok := index[id]
			if !ok {
				return fmt.Errorf("part %d: node %d not in user %d's graph", pi, id, p.User)
			}
			counts[p.User][k]++
			if pl.Remote[id] != p.Remote {
				return fmt.Errorf("part %d: node %d placement disagrees with its part", pi, id)
			}
			if p.Remote {
				remote[p.User]++
			}
		}
	}
	for u := range users {
		for k, c := range counts[u] {
			if c != 1 {
				return fmt.Errorf("user %d: node index %d placed %d times", u, k, c)
			}
		}
		if len(sol.Placements[u].Remote) != remote[u] {
			return fmt.Errorf("user %d: %d remote nodes in placement, %d in parts", u, len(sol.Placements[u].Remote), remote[u])
		}
	}
	ev, err := mec.EvaluatePlacements(v.w.params, sol.Placements)
	if err != nil {
		return fmt.Errorf("evaluate placements: %w", err)
	}
	if !sameFloat(ev.Objective, obj) {
		return fmt.Errorf("evaluated objective %v != solution objective %v", ev.Objective, obj)
	}
	return nil
}

func (v *verifier) index(g *graph.Graph) map[graph.NodeID]int32 {
	if m, ok := v.idx[g]; ok {
		return m
	}
	ids := g.Nodes()
	m := make(map[graph.NodeID]int32, len(ids))
	for i, id := range ids {
		m[id] = int32(i)
	}
	v.idx[g] = m
	return m
}

// signature hashes a solution's objective bits and every part's owner,
// size, first node and placement.
func signature(sol *core.Solution) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(math.Float64bits(sol.Eval.Objective))
	for _, p := range sol.Parts {
		put(uint64(p.User))
		put(uint64(len(p.Nodes)))
		if len(p.Nodes) > 0 {
			put(uint64(p.Nodes[0]))
		}
		if p.Remote {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}
