package main

import (
	"bytes"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the layer boundary. Spans of one round share Round; Parent is the ID of
// the span that was open when this one started (0 for a root). Derived marks
// a span rebuilt from durations a layer reported in its result instead of
// timed here: its length is real, its position inside the parent is not.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Round   int    `json:"round"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// setupRound is the Round of spans recorded during set-up and warm-up.
const setupRound = -1

// tracer keeps the traced pass's spans in memory. A nil *tracer records
// nothing, so the event scripts run unchanged in the untraced pass. The
// benchmark drives one round at a time on one goroutine, so a plain stack of
// open spans gives the parent.
type tracer struct {
	epoch time.Time
	round int
	spans []span
	open  []int // indices into spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), round: setupRound} }

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	i := t.add(name, time.Since(t.epoch), 0, false)
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndNS = int64(time.Since(t.epoch))
		t.open = t.open[:len(t.open)-1]
	}
}

// derived records a child of the innermost open span from a duration the
// layer reported, placed at offset from the parent's start.
func (t *tracer) derived(name string, offset, d time.Duration) {
	parent := &t.spans[t.open[len(t.open)-1]]
	start := time.Duration(parent.StartNS) + offset
	t.add(name, start, start+d, true)
}

func (t *tracer) add(name string, start, end time.Duration, derived bool) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Round: t.round, Name: name,
		StartNS: int64(start), EndNS: int64(end), Derived: derived,
	})
	return len(t.spans) - 1
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
