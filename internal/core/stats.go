package core

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/seqsim"
)

// StageNS is a per-fault (or per-run delta) stage-time breakdown in
// nanoseconds. Step0 covers the serial conventional resimulation plus
// the condition (C) profile; Collect covers pair collection including
// the implication runs it performs (Imply is the implication share of
// Collect, not an additional stage); Expand and Resim cover Procedure 2
// and the Section 3.4 resimulation including the portfolio retry.
type StageNS struct {
	Step0   int64 `json:"step0_ns"`
	Collect int64 `json:"collect_ns"`
	Imply   int64 `json:"imply_ns"`
	Expand  int64 `json:"expand_ns"`
	Resim   int64 `json:"resim_ns"`
	Total   int64 `json:"total_ns"`
}

// PoolStats instruments the PR 2 pooling layer: how often the pooled
// resources were reused versus freshly allocated, and the arena
// high-water marks. Counts are summed across RunParallel workers; peaks
// take the maximum.
type PoolStats struct {
	// FrameReuses/FrameAllocs count implication-frame acquisitions (pair
	// frame and deep-backward frames) served by ResetFault on a pooled
	// frame versus a fresh implic.New.
	FrameReuses int64 `json:"frame_reuses"`
	FrameAllocs int64 `json:"frame_allocs"`
	// SeqReuses/SeqAllocs count expansion sequences recycled from the
	// slab free list versus freshly allocated.
	SeqReuses int64 `json:"seq_reuses"`
	SeqAllocs int64 `json:"seq_allocs"`
	// TraceReuses/TraceAllocs count faulty-trace acquisitions served by
	// the pooled RunFaultInto trace versus a fresh NewTrace.
	TraceReuses int64 `json:"trace_reuses"`
	TraceAllocs int64 `json:"trace_allocs"`
	// SVArenaPeak is the high-water mark of the per-fault sv-assignment
	// arena (entries); SVIdxArenaPeak of the sv-index arena.
	SVArenaPeak    int64 `json:"sv_arena_peak"`
	SVIdxArenaPeak int64 `json:"sv_idx_arena_peak"`
	// SeqLivePeak is the maximum number of expansion sequences alive at
	// once (the N_STATES budget bounds it from above).
	SeqLivePeak int64 `json:"seq_live_peak"`
}

// merge folds other into p: counters add, peaks take the maximum.
func (p *PoolStats) merge(other PoolStats) {
	p.FrameReuses += other.FrameReuses
	p.FrameAllocs += other.FrameAllocs
	p.SeqReuses += other.SeqReuses
	p.SeqAllocs += other.SeqAllocs
	p.TraceReuses += other.TraceReuses
	p.TraceAllocs += other.TraceAllocs
	p.SVArenaPeak = max64(p.SVArenaPeak, other.SVArenaPeak)
	p.SVIdxArenaPeak = max64(p.SVIdxArenaPeak, other.SVIdxArenaPeak)
	p.SeqLivePeak = max64(p.SeqLivePeak, other.SeqLivePeak)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// runStats is the per-worker instrumentation accumulator: the live
// deltas of the worker's fault records summed in one LiveSnapshot, plus
// the worker's pool counters. Every run worker owns its own, so all
// fields are plain — no atomics on the hot path. Totals merge into
// Result.Stages once the run completes.
type runStats struct {
	sum  LiveSnapshot
	pool PoolStats
}

// tick adds the monotonic time since *last to the stage time *stage of
// the current fault's record and advances *last. With metrics off it is
// a no-op and performs no clock read.
func (s *Simulator) tick(last *time.Time, stage *int64) {
	if s.stats == nil {
		return
	}
	now := time.Now()
	*stage += int64(now.Sub(*last))
	*last = now
}

// implySampleShift sets the implication timing sample rate: one in
// 2^implySampleShift implication calls is timed, and ImplyTime counts
// each timed call 2^implySampleShift times. Sampling keeps the two
// extra clock reads off most of the (very hot) implication calls; even
// small runs make thousands of calls, so 1-in-64 still gives a stable
// estimate.
const implySampleShift = 6

// RunMetrics holds the per-fault distribution histograms of one run.
// The histograms are concurrency-safe (see internal/metrics) and are
// shared by every RunParallel worker; observations cover exactly the
// faults that entered the per-fault MOT pipeline (prescreen-dropped
// faults never reach it).
type RunMetrics struct {
	// PairsPerFault is the distribution of candidate (time unit, state
	// variable) pairs collected per fault.
	PairsPerFault *metrics.Histogram
	// ExpansionsPerFault is the distribution of sequence-duplicating
	// (phase 2) expansions per fault.
	ExpansionsPerFault *metrics.Histogram
	// SequencesAtStop is the distribution of state-sequence counts when
	// each fault's expansion stopped.
	SequencesAtStop *metrics.Histogram
	// FaultTimeNS is the distribution of per-fault wall time
	// (SimulateFault, nanoseconds).
	FaultTimeNS *metrics.Histogram
	// ConeGatesPerFault is the distribution of active-cone sizes (gates
	// in the sequential fanout closure of the fault site) over the faults
	// that entered the per-fault pipeline — the share of the circuit
	// faulty simulation actually visits per fault.
	ConeGatesPerFault *metrics.Histogram
	// ResimLanesPerPass is the distribution of lane occupancy (sequences
	// packed per word) over bit-parallel resimulation passes — how full
	// the 256-lane words run in practice.
	ResimLanesPerPass *metrics.Histogram
	// EventsPerFrame is the distribution of node value changes (events)
	// per event-driven sparse frame — how little of the circuit a faulty
	// frame actually perturbs.
	EventsPerFrame *metrics.Histogram
	// GatesVisitedPerFrame is the distribution of gate evaluations per
	// event-driven sparse frame — the work left after event confinement,
	// versus the cone sizes in ConeGatesPerFault.
	GatesVisitedPerFrame *metrics.Histogram
}

// newRunMetrics builds the run histograms with power-of-two bucket
// layouts sized for the suite circuits.
func newRunMetrics() *RunMetrics {
	return &RunMetrics{
		PairsPerFault:        metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
		ExpansionsPerFault:   metrics.NewHistogram(metrics.ExpBounds(1, 2, 10)...),
		SequencesAtStop:      metrics.NewHistogram(metrics.ExpBounds(1, 2, 10)...),
		FaultTimeNS:          metrics.NewHistogram(metrics.ExpBounds(1024, 4, 14)...),
		ConeGatesPerFault:    metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
		ResimLanesPerPass:    metrics.NewHistogram(metrics.ExpBounds(1, 2, 10)...),
		EventsPerFrame:       metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
		GatesVisitedPerFrame: metrics.NewHistogram(metrics.ExpBounds(1, 2, 14)...),
	}
}

// observeFault feeds the record of a fault that completed the per-fault
// pipeline into the run histograms (a no-op with metrics off). A
// span-sampled fault also becomes the exemplar of every bucket it
// landed in, linking each histogram back to the fault name and its
// span; unsampled faults never allocate exemplar labels.
func (s *Simulator) observeFault() {
	m := s.hist
	if m == nil {
		return
	}
	r := &s.rec
	obs := [...]struct {
		h *metrics.Histogram
		v int64
	}{
		{m.PairsPerFault, int64(r.out.Pairs)},
		{m.ExpansionsPerFault, int64(r.out.Expansions)},
		{m.SequencesAtStop, int64(r.out.Sequences)},
		{m.FaultTimeNS, r.stages.Total},
		{m.ConeGatesPerFault, r.cone},
	}
	for _, o := range obs {
		o.h.Observe(o.v)
	}
	if s.span == 0 {
		return
	}
	fl := metrics.Label{Key: "fault", Val: r.out.Fault.Name(s.c)}
	sl := metrics.Label{Key: "span_id", Val: fmt.Sprintf("%016x", uint64(s.span))}
	for _, o := range obs {
		o.h.SetExemplar(o.v, fl, sl)
	}
}

// beginRun resets the per-run instrumentation state on s according to
// the configuration and attaches the run histograms to res. s is the
// run's worker 0; the other workers (clone) receive their own runStats
// and share these histograms.
func (s *Simulator) beginRun(res *Result) {
	if !s.cfg.Metrics {
		s.stats, s.hist = nil, nil
		s.sim.SetFrameHists(nil, nil)
		return
	}
	s.stats = &runStats{}
	s.hist = newRunMetrics()
	res.Metrics = s.hist
	s.sim.SetFrameHists(s.hist.EventsPerFrame, s.hist.GatesVisitedPerFrame)
}

// mergeStats folds one worker's accumulator into the run totals.
func (st *Stages) mergeStats(rs *runStats) {
	if rs == nil {
		return
	}
	d := &rs.sum
	st.Step0Time += time.Duration(d.Step0NS)
	st.CollectTime += time.Duration(d.CollectNS)
	st.ImplyTime += time.Duration(d.ImplyNS)
	st.ExpandTime += time.Duration(d.ExpandNS)
	st.ResimTime += time.Duration(d.ResimNS)
	st.ImplyCalls += d.ImplyCalls
	st.ResimVectorPasses += d.ResimVectorPasses
	st.ResimVectorFrames += d.ResimVectorFrames
	st.MOTFaults += int(d.MOTFaults)
	st.Sim.Merge(seqsim.SimStats{
		EventFrames: d.EventFrames, FullFrames: d.FullFrames,
		EventGateEvals: d.EventGateEvals, Events: d.Events,
	})
	st.Pool.merge(rs.pool)
}
