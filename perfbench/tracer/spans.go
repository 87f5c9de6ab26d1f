package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"proger/internal/entity"
	"proger/internal/mechanism"
)

// span is one timed interval of the traced run, in nanoseconds since
// the recorder's epoch. Matcher calls are too many to keep one span
// each, so a block span folds its matcher calls in: Calls and Matches
// count them and MatchNs is the time they covered (they run one after
// another on the block's goroutine, so their durations add up without
// overlap).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
	Calls   int64  `json:"match_calls,omitempty"`
	Matches int64  `json:"match_true,omitempty"`
	MatchNs int64  `json:"match_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span in memory until the run ends; it is safe
// for concurrent use by the engine's host goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add stores a finished span and returns its ID (IDs start at 1; 0 is
// "no parent").
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// begin starts a span under parent and returns its ID; end closes it.
// The ID exists from the start, so spans opened while this one runs
// (on any goroutine) can name it as their parent.
func (r *recorder) begin(name string, parent int) (id int, start int64) {
	start = r.now()
	return r.add(span{Parent: parent, Name: name}), start
}

func (r *recorder) end(id int, start int64) span {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.Start, s.End = start, end
	return *s
}

// finish computes every span's self time — its duration minus the part
// of it that its child spans and folded matcher calls cover — and
// returns the spans in ID order.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.Self = s.dur() - s.MatchNs - covered(s.Start, s.End, children[s.ID])
	}
	return r.spans
}

// covered returns how much of [start, end) the union of the spans'
// intervals covers. Children running on different goroutines overlap,
// so their durations are not simply summed.
func covered(start, end int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		lo, hi := max(s.Start, start), min(s.End, end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// timedMechanism decorates a Mechanism: every ResolveBlock becomes a
// "mechanism.resolve_block" span under parent, with the block's
// matcher calls timed and folded into it. Otherwise it is transparent —
// the wrapped mechanism sees the same Env callbacks, entities and
// window, so the run's results are unchanged.
type timedMechanism struct {
	inner  mechanism.Mechanism
	rec    *recorder
	parent int
}

func (m *timedMechanism) Name() string { return m.inner.Name() }

func (m *timedMechanism) ResolveBlock(env *mechanism.Env, ents []*entity.Entity, window int) mechanism.VisitStats {
	s := span{Parent: m.parent, Name: "mechanism.resolve_block"}
	match := env.Match
	timed := *env
	timed.Match = func(a, b *entity.Entity) bool {
		t := time.Now()
		ok := match(a, b)
		s.MatchNs += int64(time.Since(t))
		s.Calls++
		if ok {
			s.Matches++
		}
		return ok
	}
	s.Start = m.rec.now()
	st := m.inner.ResolveBlock(&timed, ents, window)
	s.End = m.rec.now()
	m.rec.add(s)
	return st
}
