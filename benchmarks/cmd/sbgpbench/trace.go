package main

import (
	"encoding/json"
	"os"
	"time"
)

// Spans are recorded from the benchmark's own files, around its calls
// into each layer's public functions; spans inside the engine are a
// later issue. One span covers one (function, batch): StartNS..EndNS is
// the batch window, Count the calls made in it and BusyNS the time spent
// inside those calls (equal to the window for a single call). Self time
// is BusyNS minus the BusyNS of the span's children.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	BusyNS  int64  `json:"busy_ns"`
	Count   int64  `json:"count"`
}

// tracer keeps spans in memory; the parent process writes them out when
// the workload ends. A nil tracer records nothing, which is how the
// untraced run shares code with the traced one.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span being recorded.
type openSpan struct {
	tr    *tracer
	idx   int
	begun time.Time
}

// begin opens a span under parent (0 for a root span).
func (t *tracer) begin(parent int, layer, op string) *openSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent,
		Name: layer + "." + op, Layer: layer, Op: op,
		StartNS: now.Sub(t.origin).Nanoseconds(),
	})
	return &openSpan{tr: t, idx: len(t.spans) - 1, begun: now}
}

func (o *openSpan) id() int {
	if o == nil {
		return 0
	}
	return o.tr.spans[o.idx].ID
}

// add accounts one call of duration d to a batch span.
func (o *openSpan) add(d time.Duration) {
	if o == nil {
		return
	}
	s := &o.tr.spans[o.idx]
	s.BusyNS += d.Nanoseconds()
	s.Count++
}

// end closes the span. A span that saw no add is a single call: its
// busy time is its window.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	s := &o.tr.spans[o.idx]
	s.EndNS = time.Since(o.tr.origin).Nanoseconds()
	if s.Count == 0 {
		s.Count = 1
		s.BusyNS = s.EndNS - s.StartNS
	}
}

// busyMS is a closed span's busy time in milliseconds.
func (o *openSpan) busyMS() float64 {
	return float64(o.tr.spans[o.idx].BusyNS) / 1e6
}

// batch times repeated calls into one layer function. It measures with
// or without a tracer, so probes read their per-call mean from it.
type batch struct {
	sp    *openSpan
	busy  time.Duration
	count int64
}

func (t *tracer) batch(parent int, layer, op string) *batch {
	return &batch{sp: t.begin(parent, layer, op)}
}

// time runs f as one call of the batch.
func (b *batch) time(f func()) {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	b.busy += d
	b.count++
	b.sp.add(d)
}

func (b *batch) end() { b.sp.end() }

// meanUS is the mean call duration in microseconds.
func (b *batch) meanUS() float64 {
	if b.count == 0 {
		return 0
	}
	return float64(b.busy.Nanoseconds()) / 1e3 / float64(b.count)
}

// selfTimes returns each span's self time in nanoseconds, keyed by id.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.BusyNS
		if s.Parent != 0 {
			self[s.Parent] -= s.BusyNS
		}
	}
	return self
}

// writeTrace writes a workload's spans, each with its self time.
func writeTrace(path string, workload string, spans []span) error {
	type withSelf struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	doc := struct {
		Workload string     `json:"workload"`
		Spans    []withSelf `json:"spans"`
	}{Workload: workload}
	for _, s := range spans {
		doc.Spans = append(doc.Spans, withSelf{s, self[s.ID]})
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
