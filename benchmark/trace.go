package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's origin; parent is -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Tag carries one attribute used when aggregating, e.g. "hit" or
	// "miss" on handler spans.
	Tag string `json:"tag,omitempty"`
	// Where names the server a serving span ran on ("router", "b0", ...).
	Where string `json:"where,omitempty"`
	// link is the request index a handler span belongs to (-1 when the
	// request carried no index); resolved into Parent after the pass.
	link int64
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the pass ends.
// It is safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, link: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a finished span measured by the caller.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	return s.ID
}

// get returns a copy of span id.
func (t *tracer) get(id int32) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.origin)) }

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:0]
}

// snapshot returns the recorded spans; call it after the pass.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the union of
// the intervals its children cover, clipped to the span.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]time.Duration, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i := range spans {
		s := &spans[i]
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				if v.hi > curHi {
					curHi = v.hi
				}
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
