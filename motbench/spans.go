package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/xtrace"
)

// maxSpans bounds the spans one traced run keeps; a 30 s traced run
// records about 100k.
const maxSpans = 1 << 21

// Trace tracks: the engine replays, one per serve client, the scraper.
const (
	engineTrack int32 = 0
	scrapeTrack int32 = serveClients + 1
)

// tracer records the benchmark's spans into an xtrace.Tracer, which
// keeps them in memory and writes them as Chrome trace JSON. A nil
// tracer records nothing, so the timed code paths are the same with
// tracing on and off apart from the recording itself.
type tracer struct {
	xt     *xtrace.Tracer
	origin time.Time // span time zero
	ids    atomic.Uint64
}

func newTracer() *tracer {
	t := &tracer{xt: xtrace.New(xtrace.Options{MaxSpans: maxSpans, FlightRecorder: 1}), origin: time.Now()}
	t.xt.RegisterTrack("engine")
	for c := 1; c <= serveClients; c++ {
		t.xt.RegisterTrack(fmt.Sprintf("client %d", c))
	}
	t.xt.RegisterTrack("scraper")
	return t
}

// newID reserves a span identifier, so that children can name a parent
// that has not ended yet.
func (t *tracer) newID() xtrace.SpanID {
	if t == nil {
		return 0
	}
	return xtrace.SpanID(t.ids.Add(1))
}

// add records the span [start, end) on a track and returns its
// identifier. An id of 0 takes a fresh one.
func (t *tracer) add(id xtrace.SpanID, name string, parent xtrace.SpanID, track int32, start, end time.Time) xtrace.SpanID {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	t.xt.Record(xtrace.Span{ID: id, Parent: parent, Name: name, Track: track,
		Start: int64(start.Sub(t.origin)), Dur: int64(end.Sub(start))})
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its child spans cover.
func selfTimes(spans []xtrace.Span) map[string]time.Duration {
	children := make(map[xtrace.SpanID][]xtrace.Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.Dur - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length in nanoseconds of the union of the children's
// intervals, clipped to the parent's interval.
func covered(parent xtrace.Span, kids []xtrace.Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.Start+k.Dur, parent.Start+parent.Dur)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	return total + curHi - curLo
}
