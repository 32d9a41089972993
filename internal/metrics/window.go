package metrics

import (
	"fmt"
	"sync"
	"time"
)

// Window is a rolling-window aggregator: a ring of fixed-interval
// buckets, each holding a small fixed-bound histogram, merged at read
// time into rates and quantile estimates over the most recent span
// (typically the last minute and the last five). It answers the
// question cumulative histograms cannot: "did the last minute get
// slow?".
//
// One mutex guards the ring. Windows are observed once per request or
// run, so the lock costs nothing measurable, and it makes every Stats
// snapshot exact: the count equals the bucket total, and sum, min and
// max describe the same observations, even while writers rotate slots.
type Window struct {
	interval int64 // bucket width in nanoseconds
	bounds   []int64
	// now is the monotonic-enough clock, injectable for tests.
	now   func() int64
	mu    sync.Mutex
	slots []windowSlot
}

// windowSlot is one ring bucket. epoch is the absolute interval number
// (now / interval) the slot currently accumulates; a slot whose epoch
// trails the current interval is stale and is reset before reuse.
type windowSlot struct {
	epoch    int64
	sum      int64
	min, max int64
	counts   []int64
}

// NewWindow builds a rolling window of span covered by fixed buckets of
// the given interval, with histogram bounds for quantile estimation
// (same semantics as NewHistogram). One extra slot keeps the full span
// covered by complete buckets even while the current one fills.
func NewWindow(interval, span time.Duration, bounds ...int64) *Window {
	if interval <= 0 || span < interval {
		panic(fmt.Sprintf("metrics: window needs 0 < interval <= span, got %v/%v", interval, span))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: window bounds not increasing: %v", bounds))
		}
	}
	n := int(span/interval) + 1
	w := &Window{
		interval: int64(interval),
		bounds:   append([]int64(nil), bounds...),
		slots:    make([]windowSlot, n),
		now:      func() int64 { return time.Now().UnixNano() },
	}
	for i := range w.slots {
		w.slots[i].counts = make([]int64, len(bounds)+1)
		w.slots[i].reset(-1)
	}
	return w
}

// Observe records one value into the current interval's bucket.
func (w *Window) Observe(v int64) {
	i := 0
	for i < len(w.bounds) && v > w.bounds[i] {
		i++
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.now() / w.interval
	s := &w.slots[int(e%int64(len(w.slots)))]
	if s.epoch < e {
		// Stale slot: start interval e. (A clock that stepped back
		// leaves a newer slot in place and adds to it.)
		s.reset(e)
	}
	s.counts[i]++
	s.sum += v
	s.min = min(s.min, v)
	s.max = max(s.max, v)
}

// reset empties the slot for interval e.
func (s *windowSlot) reset(e int64) {
	s.epoch, s.sum = e, 0
	s.min, s.max = maxInt64Bound, -maxInt64Bound-1
	clear(s.counts)
}

// total is the slot's observation count: the sum of its bucket counts.
func (s *windowSlot) total() int64 {
	var n int64
	for _, c := range s.counts {
		n += c
	}
	return n
}

// Stats merges every bucket covering the last span into one Snapshot
// (count, sum, quantile-capable buckets). The current partial interval
// is included, so a burst shows up immediately; rates computed against
// the nominal span therefore understate slightly at the start of an
// interval, which is the usual rolling-window tradeoff.
func (w *Window) Stats(span time.Duration) Snapshot {
	need := int64(span) / w.interval
	if need < 1 {
		need = 1
	}
	if need > int64(len(w.slots)) {
		need = int64(len(w.slots))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := w.now() / w.interval
	snap := Snapshot{}
	counts := make([]int64, len(w.bounds)+1)
	for i := range w.slots {
		s := &w.slots[i]
		if s.epoch < 0 || s.epoch > cur || s.epoch <= cur-need {
			continue
		}
		c := s.total()
		if c == 0 {
			continue
		}
		if snap.Count == 0 || s.min < snap.Min {
			snap.Min = s.min
		}
		if snap.Count == 0 || s.max > snap.Max {
			snap.Max = s.max
		}
		snap.Count += c
		snap.Sum += s.sum
		for j := range counts {
			counts[j] += s.counts[j]
		}
	}
	if snap.Count > 0 {
		snap.Mean = float64(snap.Sum) / float64(snap.Count)
	}
	snap.Buckets = make([]Bucket, len(counts))
	for j := range counts {
		le := int64(maxInt64Bound)
		if j < len(w.bounds) {
			le = w.bounds[j]
		}
		snap.Buckets[j] = Bucket{Le: le, Count: counts[j]}
	}
	return snap
}

// maxInt64Bound mirrors the Histogram overflow-bucket sentinel.
const maxInt64Bound = int64(^uint64(0) >> 1)

// Rate returns the per-second observation rate over the last span.
func (w *Window) Rate(span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(w.Stats(span).Count) / span.Seconds()
}

// RegisterWindow exposes the standard rolling series for w under name:
// per-second observation rates over the last 1m and 5m, and p50/p95/p99
// quantile estimates over both horizons. scale multiplies the quantile
// values (pass 1e-9 for nanosecond observations exposed as seconds),
// matching HistogramFunc. All series are gauges — rolling-window values
// go down when load does.
func RegisterWindow(r *Registry, name, help string, scale float64, w *Window) {
	if scale <= 0 {
		panic(fmt.Sprintf("metrics: window %q scale must be positive", name))
	}
	quant := func(span time.Duration, q float64) func() float64 {
		return func() float64 { return float64(w.Stats(span).Quantile(q)) * scale }
	}
	r.GaugeFunc(name+"_rate1m", help+" (per-second rate, last 1m).",
		func() float64 { return w.Rate(time.Minute) })
	r.GaugeFunc(name+"_rate5m", help+" (per-second rate, last 5m).",
		func() float64 { return w.Rate(5 * time.Minute) })
	r.GaugeFunc(name+"_p50_1m", help+" (p50, last 1m).", quant(time.Minute, 0.50))
	r.GaugeFunc(name+"_p95_1m", help+" (p95, last 1m).", quant(time.Minute, 0.95))
	r.GaugeFunc(name+"_p99_1m", help+" (p99, last 1m).", quant(time.Minute, 0.99))
	r.GaugeFunc(name+"_p95_5m", help+" (p95, last 5m).", quant(5*time.Minute, 0.95))
	r.GaugeFunc(name+"_p99_5m", help+" (p99, last 5m).", quant(5*time.Minute, 0.99))
}
