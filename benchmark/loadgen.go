package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries a request's index from the generator to the handler
// wrappers, which use it to parent their spans under the client span.
const reqHeader = "X-Bench-Request"

// maxBacklog is how far behind schedule the generator may fall before it
// abandons the rest of a phase (the phase then fails its backlog check).
const maxBacklog = 2 * time.Second

// clientTimeout bounds one request; a request that hits it has failed.
const clientTimeout = 10 * time.Second

// sample is the client-side record of one request.
type sample struct {
	sent    bool
	due     time.Time // scheduled send time
	start   time.Time // actual send time
	end     time.Time
	lag     time.Duration // timer lateness when the generator was on time
	onTime  bool          // the send slot had not passed when the request was picked
	status  int
	body    []byte
	errText string
}

// latency is the request's time from its scheduled send to its response.
func (s *sample) latency() time.Duration { return s.end.Sub(s.due) }

// phase is one fixed-rate slice of an open-loop run.
type phase struct {
	samples []sample
	aborted bool
	wall    time.Duration
}

// openLoop sends reqs at a fixed rate from at most conns connections: the
// i-th request is due i/rate seconds after the start whatever happened to
// earlier ones, and each request is timed from when it was due. A request
// whose base is produced by an earlier request of the same phase waits for
// that request first. With a tracer each request also records a client
// span.
func openLoop(client *http.Client, url string, reqs []*reqSpec, first int, rate float64, conns int, tr *tracer) *phase {
	ph := &phase{samples: make([]sample, len(reqs))}
	done := make([]chan struct{}, len(reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	period := time.Duration(float64(time.Second) / rate)
	begin := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &ph.samples[i]
				s.due = begin.Add(time.Duration(i) * period)
				if wait := time.Until(s.due); wait > 0 {
					time.Sleep(wait)
					s.onTime = true
					s.lag = time.Since(s.due)
				} else if -wait > maxBacklog {
					stopOnce.Do(func() { close(stop) })
				}
				select {
				case <-stop:
					close(done[i])
					continue
				default:
				}
				if d := reqs[i].dep - first; reqs[i].dep >= 0 && d >= 0 {
					select {
					case <-done[d]:
					case <-stop:
						close(done[i])
						continue
					}
				}
				send(client, url, reqs[i], s, tr)
				close(done[i])
			}
		}()
	}
	wg.Wait()
	select {
	case <-stop:
		ph.aborted = true
	default:
	}
	ph.wall = time.Since(begin)
	return ph
}

// send performs one request and records it in s.
func send(client *http.Client, url string, spec *reqSpec, s *sample, tr *tracer) {
	s.sent = true
	s.start = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), clientTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+spec.path, bytes.NewReader(spec.body))
	if err != nil {
		s.end, s.errText = time.Now(), err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.Itoa(spec.idx))
	resp, err := client.Do(req)
	if err != nil {
		s.end, s.errText = time.Now(), err.Error()
		return
	}
	s.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	s.status = resp.StatusCode
	if err != nil {
		s.errText = err.Error()
	}
	if tr != nil {
		tr.add(span{Parent: -1, Name: "client", Start: tr.at(s.start), End: tr.at(s.end), link: int64(spec.idx)})
	}
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     30 * time.Second,
			DisableCompression:  true,
		},
	}
}

// timedHandler wraps a handler with a span per request, tagged "hit" when
// the response reports a cached answer and "miss" otherwise.
type timedHandler struct {
	name, where string
	h           http.Handler
	tr          *tracer
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	link := int64(-1)
	if v, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
		link = v
	}
	start := t.tr.now()
	rec := &recordingWriter{ResponseWriter: w}
	t.h.ServeHTTP(rec, r)
	tag := "miss"
	if bytes.Contains(rec.buf.Bytes(), []byte(`"cached":true`)) {
		tag = "hit"
	}
	t.tr.add(span{Parent: -1, Name: t.name, Start: start, End: t.tr.now(), Tag: tag, Where: t.where, link: link})
}

// recordingWriter keeps a copy of the response body.
type recordingWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (r *recordingWriter) Write(p []byte) (int, error) {
	r.buf.Write(p)
	return r.ResponseWriter.Write(p)
}
