package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"copmecs/internal/durable"
	"copmecs/internal/router"
	"copmecs/internal/serve"
)

// stack is the serving tier running inside the benchmark process: one or
// more copmecsd backends (serve.Server with a durable journal in a fresh
// directory), behind a copmecs-router when there are several, each on its
// own loopback listener.
type stack struct {
	dir      string
	backends []*backendInst
	rt       *router.Router
	rtHTTP   *httpServer
	url      string
	cancel   context.CancelFunc
}

type backendInst struct {
	name    string
	srv     *serve.Server
	store   *durable.Store
	journal *timedJournal // nil when untraced
	http    *httpServer
}

type httpServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { hs.done <- hs.srv.Serve(ln) }()
	return hs, nil
}

func (h *httpServer) close(ctx context.Context) {
	if err := h.srv.Shutdown(ctx); err != nil {
		_ = h.srv.Close()
	}
	<-h.done
}

// bootStack starts a fresh stack under dir. With a tracer, every handler
// and journal append records spans.
func bootStack(dir string, backends int, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stack directory: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{dir: dir, cancel: cancel}
	for i := 0; i < backends; i++ {
		b := &backendInst{name: fmt.Sprintf("b%d", i)}
		st.backends = append(st.backends, b)
		store, _, err := durable.Open(durable.Options{Dir: filepath.Join(dir, b.name)})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("open journal: %w", err)
		}
		b.store = store
		cfg := serve.Config{ID: b.name, Journal: store}
		if tr != nil {
			b.journal = &timedJournal{inner: store, tr: tr, where: b.name}
			cfg.Journal = b.journal
		}
		srv, err := serve.New(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		b.srv = srv
		srv.Start(ctx)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = timedHandler{name: "serve.handler", where: b.name, h: h, tr: tr}
		}
		if b.http, err = listen(h); err != nil {
			st.close()
			return nil, err
		}
	}
	st.url = st.backends[0].http.url
	if backends > 1 {
		cfg := router.Config{}
		for _, b := range st.backends {
			cfg.Backends = append(cfg.Backends, router.BackendConfig{Name: b.name, URL: b.http.url})
		}
		rt, err := router.New(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.rt = rt
		rt.Start(ctx)
		var h http.Handler = rt.Handler()
		if tr != nil {
			h = timedHandler{name: "router.handler", where: "router", h: h, tr: tr}
		}
		if st.rtHTTP, err = listen(h); err != nil {
			st.close()
			return nil, err
		}
		st.url = st.rtHTTP.url
	}
	return st, nil
}

// close drains and stops every server, closes the journals and removes
// the data directory.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.rt != nil {
		_ = st.rt.Drain(ctx)
	}
	if st.rtHTTP != nil {
		st.rtHTTP.close(ctx)
	}
	for _, b := range st.backends {
		if b.srv != nil {
			_ = b.srv.Drain(ctx)
		}
		if b.http != nil {
			b.http.close(ctx)
		}
		if b.store != nil {
			_ = b.store.Close()
		}
	}
	st.cancel()
	_ = os.RemoveAll(st.dir)
}

// serveStats sums the backends' counters.
func (st *stack) serveStats() serve.Stats {
	var sum serve.Stats
	for _, b := range st.backends {
		s := b.srv.Stats()
		sum.Requests += s.Requests
		sum.Deduped += s.Deduped
		sum.Cache.Hits += s.Cache.Hits
		sum.Cache.Misses += s.Cache.Misses
		sum.Cache.BodyHits += s.Cache.BodyHits
		sum.GraphCache.Reused += s.GraphCache.Reused
		sum.GraphCache.Size += s.GraphCache.Size
		sum.GraphCache.Evictions += s.GraphCache.Evictions
		sum.Batch.Rounds += s.Batch.Rounds
		sum.Batch.Users += s.Batch.Users
		sum.Batch.FusedRounds += s.Batch.FusedRounds
		sum.Batch.FusedGraphs += s.Batch.FusedGraphs
		sum.Batch.QueueDepth += s.Batch.QueueDepth
		sum.Incremental.Mutates += s.Incremental.Mutates
		sum.Incremental.DeltaSolves += s.Incremental.DeltaSolves
		sum.Incremental.ColdFallbacks += s.Incremental.ColdFallbacks
		sum.Incremental.LanczosItersSaved += s.Incremental.LanczosItersSaved
	}
	return sum
}

// queueDepth sums the backends' batcher queue depths.
func (st *stack) queueDepth() int {
	n := 0
	for _, b := range st.backends {
		n += b.srv.Stats().Batch.QueueDepth
	}
	return n
}

// routerStatus fetches the router's own counters over its stats endpoint.
func (st *stack) routerStatus(client *http.Client) (router.RouterStatus, error) {
	if st.rt == nil {
		return router.RouterStatus{}, nil
	}
	resp, err := client.Get(st.url + "/v1/stats")
	if err != nil {
		return router.RouterStatus{}, fmt.Errorf("router stats: %w", err)
	}
	defer resp.Body.Close()
	var doc router.StatsDocument
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return router.RouterStatus{}, fmt.Errorf("router stats: %w", err)
	}
	return doc.Router, nil
}

// timedJournal is the serve.Journal the traced stack hands each server: it
// forwards to the durable store and records a span per append.
type timedJournal struct {
	inner serve.Journal
	tr    *tracer
	where string
	bytes atomic.Int64
}

func (j *timedJournal) Append(payload []byte) (uint64, error) {
	start := j.tr.now()
	tok, err := j.inner.Append(payload)
	j.tr.add(span{Parent: -1, Name: "durable.append", Start: start, End: j.tr.now(), Where: j.where, link: -1})
	j.bytes.Add(int64(len(payload)))
	return tok, err
}

func (j *timedJournal) Applied(token uint64) { j.inner.Applied(token) }
