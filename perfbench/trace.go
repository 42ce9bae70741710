package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Parent is the enclosing span (0 = none); spans of one operation share
// their root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times the benchmark's calls. Durations are always returned,
// since set-up time and latencies come from them; spans are kept in
// memory only when tracing is on and written out when the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// timer is an open span.
type timer struct {
	t     *tracer
	id    int
	start time.Time
}

// begin opens a span named after the call it wraps.
func (t *tracer) begin(name string, parent int) timer {
	tm := timer{t: t, start: time.Now()}
	if t.on {
		t.mu.Lock()
		tm.id = len(t.spans) + 1
		t.spans = append(t.spans, span{ID: tm.id, Parent: parent, Name: name,
			Start: tm.start.Sub(t.t0).Nanoseconds()})
		t.mu.Unlock()
	}
	return tm
}

// end closes the span and returns its duration.
func (tm timer) end() time.Duration {
	now := time.Now()
	if tm.id > 0 {
		tm.t.mu.Lock()
		tm.t.spans[tm.id-1].End = now.Sub(tm.t.t0).Nanoseconds()
		tm.t.mu.Unlock()
	}
	return now.Sub(tm.start)
}

// median returns the median duration in seconds of the closed spans
// with this name (0 when there are none).
func (t *tracer) median(name string) float64 {
	t.mu.Lock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			d = append(d, float64(s.End-s.Start)/1e9)
		}
	}
	t.mu.Unlock()
	return median(d)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
