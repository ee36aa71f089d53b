package main

import (
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one query share
// its Query number; Parent is the ID of the span that caused this one
// (0 for a root).
type span struct {
	Query   int     `json:"query"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder keeps the spans and counts of a traced run in memory until the
// run ends and they are dumped as JSON. A nil recorder records nothing:
// that is the tracing-off path the end-to-end metrics are measured on.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]int64{}}
}

// start opens a span and returns its ID plus the function that closes it.
func (r *recorder) start(query, parent int, name string) (int, func()) {
	if r == nil {
		return 0, func() {}
	}
	begin := time.Since(r.t0)
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Query: query, ID: id, Parent: parent, Name: name,
		StartUS: float64(begin) / float64(time.Microsecond)})
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.t0)
		r.mu.Lock()
		r.spans[id-1].EndUS = float64(end) / float64(time.Microsecond)
		r.mu.Unlock()
	}
}

func (r *recorder) count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}
