package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or one replayed commit) share a root; a layer's self time is its
// span minus its children.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent,omitempty"` // 0 = root
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"` // since the tracer was created
	EndUS   float64        `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so call sites stay unconditional.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 when tracing is
// off).
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartUS: us(start.Sub(t.t0)), EndUS: us(end.Sub(t.t0)), Attrs: attrs})
	return id
}

// reserve allocates an id for a span whose children finish first.
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1})
	return len(t.spans)
}

func (t *tracer) finish(id, parent int, name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{ID: id, Parent: parent, Name: name,
		StartUS: us(start.Sub(t.t0)), EndUS: us(end.Sub(t.t0)), Attrs: attrs}
}

func (t *tracer) write(path string, header any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Header any    `json:"header"`
		Spans  []span `json:"spans"`
	}{header, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
