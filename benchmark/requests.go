package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"copmecs/internal/graph"
	"copmecs/internal/netgen"
)

// reqSpec is one generated request and what a correct answer must match.
type reqSpec struct {
	// idx is the request's position in the run's request stream.
	idx  int
	path string
	body []byte
	// graph is the graph the answer is for (the mutated graph for a
	// mutate) and fp its fingerprint, which the answer must echo.
	graph *graph.Graph
	fp    string
	// Mutates only: the base graph and its fingerprint, the delta, and dep,
	// the stream index of the request that produced the base (-1 when the
	// base was solved during set-up).
	base   *graph.Graph
	baseFp string
	delta  *graph.Delta
	dep    int
	// spot marks a mutate whose answer is re-solved cold after the run.
	spot bool
}

func (r *reqSpec) mutate() bool { return r.delta != nil }

// solveBody encodes a /v1/solve request for g.
func solveBody(g *graph.Graph) ([]byte, error) {
	return json.Marshal(struct {
		Graph *graph.Graph `json:"graph"`
	}{g})
}

func solveSpec(idx int, g *graph.Graph) (*reqSpec, error) {
	body, err := solveBody(g)
	if err != nil {
		return nil, err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &reqSpec{idx: idx, path: "/v1/solve", body: body, graph: g, fp: fp, dep: -1}, nil
}

// source produces a workload's deterministic request stream: request i is
// the same for a given seed however the run is timed.
type source interface {
	next() (*reqSpec, error)
}

// take returns the next n requests of src.
func take(src source, n int) ([]*reqSpec, error) {
	out := make([]*reqSpec, n)
	for i := range out {
		r, err := src.next()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// sizeCycle deals sizes lo, lo+step, ..., hi in a seeded shuffled order,
// reshuffling after each full pass, so every run sees the same mix of
// sizes and only their order and the graphs' structure depend on the seed.
type sizeCycle struct {
	rng          *rand.Rand
	lo, hi, step int
	order        []int
}

func (c *sizeCycle) next() int {
	if len(c.order) == 0 {
		c.order = c.rng.Perm((c.hi-c.lo)/c.step + 1)
	}
	k := c.order[0]
	c.order = c.order[1:]
	return c.lo + k*c.step
}

// chainSource is serve-fresh's stream: every request is a graph never seen
// before, shaped like a function pipeline — a chain with a few extra
// data-reuse edges — of 24 to 160 nodes, so sizes straddle the dense
// eigensolver cutoff after compression.
type chainSource struct {
	rng   *rand.Rand
	sizes sizeCycle
	n     int
}

func newChainSource(seed int64) *chainSource {
	rng := rand.New(rand.NewSource(subSeed(seed, "chains", 0)))
	return &chainSource{rng: rng, sizes: sizeCycle{rng: rng, lo: 24, hi: 160, step: 1}}
}

func (s *chainSource) next() (*reqSpec, error) {
	g, err := chainGraph(s.rng, s.sizes.next())
	if err != nil {
		return nil, err
	}
	r, err := solveSpec(s.n, g)
	s.n++
	return r, err
}

func chainGraph(rng *rand.Rand, nodes int) (*graph.Graph, error) {
	g := graph.New(nodes)
	for i := 0; i < nodes; i++ {
		if err := g.AddNode(graph.NodeID(i), 20+rng.Float64()*200); err != nil {
			return nil, err
		}
	}
	for i := 0; i+1 < nodes; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 5+rng.Float64()*60); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nodes/4; i++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u != v {
			if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+rng.Float64()*20); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Mixed-stream shape.
const (
	mixedCorpus   = 64
	mixedChains   = 16
	mixedSpotRate = 0.05
	mixedSpotMax  = 16
)

// mixedGraph generates one multi-component application graph: netgen's
// Table I shape at a serving size, with 8 to 16 components (more for larger
// graphs) so that a one-node delta dirties only one of them.
func mixedGraph(rng *rand.Rand, nodes int) (*graph.Graph, error) {
	return netgen.Generate(netgen.Config{
		Nodes:      nodes,
		Edges:      3 * nodes,
		Components: 8 + (nodes-200)/25,
		Seed:       rng.Int63(),
	})
}

// mixedSource is serve-mixed's stream: repeats of a fixed corpus, unseen
// graphs, and one-operation mutations. Mutations advance mixedChains
// chains round-robin; each chain starts at a corpus graph and every
// mutation names the fingerprint the previous one on its chain returned.
type mixedSource struct {
	rng    *rand.Rand
	sizes  sizeCycle
	kinds  []byte // rest of the current block of mixedKinds
	corpus []*reqSpec
	heads  []*reqSpec // latest request on each chain
	chain  int
	spots  int
	n      int
}

func newMixedSource(seed int64) (*mixedSource, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "mixed", 0)))
	s := &mixedSource{rng: rng, sizes: sizeCycle{rng: rng, lo: 200, hi: 400, step: 5}}
	for i := 0; i < mixedCorpus; i++ {
		g, err := mixedGraph(s.rng, 200+i*200/(mixedCorpus-1))
		if err != nil {
			return nil, err
		}
		r, err := solveSpec(-1, g)
		if err != nil {
			return nil, err
		}
		s.corpus = append(s.corpus, r)
	}
	for c := 0; c < mixedChains; c++ {
		s.heads = append(s.heads, s.corpus[c*mixedCorpus/mixedChains])
	}
	return s, nil
}

// mixedKinds is one block of the mixed stream: of every ten requests, two
// mutate, one solves an unseen graph and seven repeat the corpus, in a
// seeded order within the block.
var mixedKinds = []byte("mmuccccccc")

func (s *mixedSource) next() (*reqSpec, error) {
	idx := s.n
	s.n++
	if len(s.kinds) == 0 {
		for _, k := range s.rng.Perm(len(mixedKinds)) {
			s.kinds = append(s.kinds, mixedKinds[k])
		}
	}
	kind := s.kinds[0]
	s.kinds = s.kinds[1:]
	switch kind {
	case 'm':
		return s.mutation(idx)
	case 'u':
		g, err := mixedGraph(s.rng, s.sizes.next())
		if err != nil {
			return nil, err
		}
		return solveSpec(idx, g)
	default:
		r := *s.corpus[s.rng.Intn(len(s.corpus))]
		r.idx = idx
		return &r, nil
	}
}

// mutation sets one node weight or one existing edge weight on the next
// chain's head graph.
func (s *mixedSource) mutation(idx int) (*reqSpec, error) {
	c := s.chain
	s.chain = (s.chain + 1) % len(s.heads)
	head := s.heads[c]
	d := &graph.Delta{}
	if s.rng.Intn(2) == 0 {
		ids := head.graph.Nodes()
		id := ids[s.rng.Intn(len(ids))]
		d.SetNodeWeights = []graph.NodeDelta{{ID: id, Weight: 10 + s.rng.Float64()*990}}
	} else {
		edges := head.graph.Edges()
		e := edges[s.rng.Intn(len(edges))]
		d.SetEdges = []graph.EdgeDelta{{U: e.U, V: e.V, Weight: 1 + s.rng.Float64()*99}}
	}
	mutated := head.graph.Clone()
	if err := d.Apply(mutated); err != nil {
		return nil, fmt.Errorf("generate mutation: %w", err)
	}
	fp, err := mutated.Fingerprint()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(struct {
		Base  string       `json:"base"`
		Delta *graph.Delta `json:"delta"`
	}{head.fp, d})
	if err != nil {
		return nil, err
	}
	dep := -1
	if head.mutate() {
		dep = head.idx
	}
	spot := s.spots < mixedSpotMax && s.rng.Float64() < mixedSpotRate
	if spot {
		s.spots++
	}
	r := &reqSpec{
		idx: idx, path: "/v1/mutate", body: body, graph: mutated, fp: fp,
		base: head.graph, baseFp: head.fp, delta: d, dep: dep, spot: spot,
	}
	s.heads[c] = r
	return r, nil
}
