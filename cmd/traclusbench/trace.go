package main

import "time"

// span is one timed call from the benchmark into a layer. Spans are kept in
// memory and written out when the run ends; the program under test carries
// no tracing of its own.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer was created
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Run    int           `json:"run"`    // which repetition of the traced sequence
}

// tracer records nested spans from one goroutine.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int // indices of the spans not yet ended, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name, nested in the innermost open span,
// and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Run: t.run})
	t.open = append(t.open, id)
	fn()
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].End - t.spans[id].Start
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Children of one span never overlap, because
// spans are recorded from a single goroutine.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// durations returns the duration of every span named name.
func (t *tracer) durations(name string) samples {
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfMedians returns the median self time of the spans of each name.
func (t *tracer) selfMedians() map[string]time.Duration {
	self := t.selfTimes()
	byName := map[string]samples{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], self[i])
	}
	out := make(map[string]time.Duration, len(byName))
	for name, ds := range byName {
		out[name] = time.Duration(ds.median() * float64(time.Second))
	}
	return out
}
