package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// span is one timed interval at a layer boundary. Spans of one request
// share ID; Parent names the span of that request that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once at the end of
// the run, so recording costs one slice append under a mutex. A nil
// tracer records nothing: untraced runs pay a nil check per boundary.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID returns a fresh request identifier (0 on a nil tracer).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores the span [start, end) under id with the given parent.
func (t *tracer) record(id uint64, parent, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// bytes is the heap the kept spans hold (their names are constants,
// but for a few set-up phase names).
func (t *tracer) bytes() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.spans) * int(unsafe.Sizeof(span{}))
}

// writeFile dumps every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
