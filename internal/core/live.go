package core

import "sync/atomic"

// defaultLiveEvery is the publication cadence when Config.LiveEvery is
// zero: each executing worker folds its pending deltas into the shared
// LiveStats after this many faults. The cadence keeps every atomic off
// the per-fault hot path — between publications a worker touches only
// its own plain-field accumulators — while a scrape still sees an
// in-flight run move every few milliseconds on the suite circuits.
const defaultLiveEvery = 32

// LiveStats is a concurrency-safe view of one or more in-flight
// whole-list runs, updated on a coarse per-worker cadence (see
// Config.Live and Config.LiveEvery) and readable at any time with
// Snapshot. Every field is monotonically non-decreasing while runs
// execute, so scraping it as Prometheus counters is sound. After a run
// returns, the final values equal the merged Result/Result.Stages
// counters of all runs published into it: both are sums of the same
// per-fault records.
//
// The zero value is ready to use. Multiple runs may share one LiveStats
// (cmd/mottables publishes the whole suite into one); the counters then
// aggregate across runs.
type LiveStats struct {
	runsStarted atomic.Int64
	runsDone    atomic.Int64

	faultsTotal atomic.Int64
	faultsDone  atomic.Int64
	conv        atomic.Int64
	mot         atomic.Int64
	prunedC     atomic.Int64

	prescreenPasses  atomic.Int64
	prescreenDropped atomic.Int64
	prescreenFrames  atomic.Int64

	motFaults  atomic.Int64
	pairs      atomic.Int64
	expansions atomic.Int64
	sequences  atomic.Int64

	implyCalls atomic.Int64
	implyNS    atomic.Int64

	resimVectorPasses atomic.Int64
	resimVectorFrames atomic.Int64

	step0NS   atomic.Int64
	collectNS atomic.Int64
	expandNS  atomic.Int64
	resimNS   atomic.Int64
	totalNS   atomic.Int64

	fullFrames     atomic.Int64
	eventFrames    atomic.Int64
	eventGateEvals atomic.Int64
	events         atomic.Int64

	// metrics publishes the current run's shared per-fault histograms
	// (concurrency-safe, observed directly by workers) so a scraper can
	// expose them mid-run. Set by beginRun when Config.Metrics is on.
	metrics atomic.Pointer[RunMetrics]
}

// Metrics returns the per-fault histograms of the most recently started
// run publishing into l, or nil before the first metrics-enabled run.
// The histograms are safe to snapshot while the run keeps observing.
func (l *LiveStats) Metrics() *RunMetrics { return l.metrics.Load() }

// LiveSnapshot is a point-in-time copy of a LiveStats, in plain fields.
// All counter fields are deterministic for a given circuit, sequence,
// configuration and fault list (scheduling-invariant); the *NS fields
// are wall-clock measurements.
type LiveSnapshot struct {
	RunsStarted int64 `json:"runs_started"`
	RunsDone    int64 `json:"runs_done"`

	FaultsTotal      int64 `json:"faults_total"`
	FaultsDone       int64 `json:"faults_done"`
	Conv             int64 `json:"detected_conventional"`
	MOT              int64 `json:"detected_mot"`
	PrunedConditionC int64 `json:"pruned_condition_c"`

	PrescreenPasses  int64 `json:"prescreen_passes"`
	PrescreenDropped int64 `json:"prescreen_dropped"`
	PrescreenFrames  int64 `json:"prescreen_frames"`

	MOTFaults  int64 `json:"mot_faults"`
	Pairs      int64 `json:"pairs"`
	Expansions int64 `json:"expansions"`
	Sequences  int64 `json:"sequences"`

	ImplyCalls int64 `json:"imply_calls"`
	// ImplyNS is estimated from the sampled implication timings exactly
	// like Stages.ImplyTime.
	ImplyNS int64 `json:"imply_ns"`

	ResimVectorPasses int64 `json:"resim_vector_passes"`
	ResimVectorFrames int64 `json:"resim_vector_frames"`

	Step0NS   int64 `json:"step0_ns"`
	CollectNS int64 `json:"collect_ns"`
	ExpandNS  int64 `json:"expand_ns"`
	ResimNS   int64 `json:"resim_ns"`
	TotalNS   int64 `json:"total_ns"`

	FullFrames     int64 `json:"full_frames"`
	EventFrames    int64 `json:"event_frames"`
	EventGateEvals int64 `json:"event_gate_evals"`
	Events         int64 `json:"events"`
}

// Snapshot copies the current state. Individual fields are read with
// independent atomic loads, so a snapshot taken mid-run may be slightly
// ahead on one counter relative to another; each field on its own never
// goes backward between snapshots.
func (l *LiveStats) Snapshot() LiveSnapshot {
	return LiveSnapshot{
		RunsStarted:       l.runsStarted.Load(),
		RunsDone:          l.runsDone.Load(),
		FaultsTotal:       l.faultsTotal.Load(),
		FaultsDone:        l.faultsDone.Load(),
		Conv:              l.conv.Load(),
		MOT:               l.mot.Load(),
		PrunedConditionC:  l.prunedC.Load(),
		PrescreenPasses:   l.prescreenPasses.Load(),
		PrescreenDropped:  l.prescreenDropped.Load(),
		PrescreenFrames:   l.prescreenFrames.Load(),
		MOTFaults:         l.motFaults.Load(),
		Pairs:             l.pairs.Load(),
		Expansions:        l.expansions.Load(),
		Sequences:         l.sequences.Load(),
		ImplyCalls:        l.implyCalls.Load(),
		ImplyNS:           l.implyNS.Load(),
		ResimVectorPasses: l.resimVectorPasses.Load(),
		ResimVectorFrames: l.resimVectorFrames.Load(),
		Step0NS:           l.step0NS.Load(),
		CollectNS:         l.collectNS.Load(),
		ExpandNS:          l.expandNS.Load(),
		ResimNS:           l.resimNS.Load(),
		TotalNS:           l.totalNS.Load(),
		FullFrames:        l.fullFrames.Load(),
		EventFrames:       l.eventFrames.Load(),
		EventGateEvals:    l.eventGateEvals.Load(),
		Events:            l.events.Load(),
	}
}

// add publishes d into the shared counters. Every publication goes
// through it: run start and end, the prescreen stage, and each worker's
// pending per-fault deltas.
func (l *LiveStats) add(d *LiveSnapshot) {
	l.runsStarted.Add(d.RunsStarted)
	l.runsDone.Add(d.RunsDone)
	l.faultsTotal.Add(d.FaultsTotal)
	l.faultsDone.Add(d.FaultsDone)
	l.conv.Add(d.Conv)
	l.mot.Add(d.MOT)
	l.prunedC.Add(d.PrunedConditionC)
	l.prescreenPasses.Add(d.PrescreenPasses)
	l.prescreenDropped.Add(d.PrescreenDropped)
	l.prescreenFrames.Add(d.PrescreenFrames)
	l.motFaults.Add(d.MOTFaults)
	l.pairs.Add(d.Pairs)
	l.expansions.Add(d.Expansions)
	l.sequences.Add(d.Sequences)
	l.implyCalls.Add(d.ImplyCalls)
	l.implyNS.Add(d.ImplyNS)
	l.resimVectorPasses.Add(d.ResimVectorPasses)
	l.resimVectorFrames.Add(d.ResimVectorFrames)
	l.step0NS.Add(d.Step0NS)
	l.collectNS.Add(d.CollectNS)
	l.expandNS.Add(d.ExpandNS)
	l.resimNS.Add(d.ResimNS)
	l.totalNS.Add(d.TotalNS)
	l.fullFrames.Add(d.FullFrames)
	l.eventFrames.Add(d.EventFrames)
	l.eventGateEvals.Add(d.EventGateEvals)
	l.events.Add(d.Events)
}

// Add adds o into s field by field. Summing the snapshots of several
// LiveStats this way gives their aggregate (cmd/motserve's /metrics);
// the run publishers fold each fault's delta into their pending
// snapshot with it too.
func (s *LiveSnapshot) Add(o LiveSnapshot) {
	s.RunsStarted += o.RunsStarted
	s.RunsDone += o.RunsDone
	s.FaultsTotal += o.FaultsTotal
	s.FaultsDone += o.FaultsDone
	s.Conv += o.Conv
	s.MOT += o.MOT
	s.PrunedConditionC += o.PrunedConditionC
	s.PrescreenPasses += o.PrescreenPasses
	s.PrescreenDropped += o.PrescreenDropped
	s.PrescreenFrames += o.PrescreenFrames
	s.MOTFaults += o.MOTFaults
	s.Pairs += o.Pairs
	s.Expansions += o.Expansions
	s.Sequences += o.Sequences
	s.ImplyCalls += o.ImplyCalls
	s.ImplyNS += o.ImplyNS
	s.ResimVectorPasses += o.ResimVectorPasses
	s.ResimVectorFrames += o.ResimVectorFrames
	s.Step0NS += o.Step0NS
	s.CollectNS += o.CollectNS
	s.ExpandNS += o.ExpandNS
	s.ResimNS += o.ResimNS
	s.TotalNS += o.TotalNS
	s.FullFrames += o.FullFrames
	s.EventFrames += o.EventFrames
	s.EventGateEvals += o.EventGateEvals
	s.Events += o.Events
}

// Undetected returns the faults classified so far as undetected.
func (s LiveSnapshot) Undetected() int64 { return s.FaultsDone - s.Conv - s.MOT }

// beginLive records a run starting against the shared stats: the run's
// fault-list size and, with metrics on, the run's histogram set.
func (s *Simulator) beginLive(total int) {
	live := s.cfg.Live
	if live == nil {
		return
	}
	live.add(&LiveSnapshot{RunsStarted: 1, FaultsTotal: int64(total)})
	if s.hist != nil {
		live.metrics.Store(s.hist)
	}
}

// publishPrescreen folds the completed prescreen stage into the live
// stats. The dropped faults themselves are published by the claim loop
// like every other fault.
func (s *Simulator) publishPrescreen(res *Result) {
	if live := s.cfg.Live; live != nil {
		live.add(&LiveSnapshot{
			PrescreenPasses:  int64(res.Stages.PrescreenPasses),
			PrescreenDropped: int64(res.Stages.PrescreenDropped),
			PrescreenFrames:  res.Stages.PrescreenFrames,
		})
	}
}

// endLive marks one run's publications complete.
func (l *LiveStats) endLive() {
	if l != nil {
		l.add(&LiveSnapshot{RunsDone: 1})
	}
}

// liveDelta is the record's contribution to the live stats and, with
// metrics on, to the worker's runStats. The pipeline internals
// (implication calls, vector passes, stage times, frame counters) are
// included only when metrics is set.
func (r *faultRecord) liveDelta(metrics bool) LiveSnapshot {
	o := &r.out
	d := LiveSnapshot{
		FaultsDone: 1,
		Pairs:      int64(o.Pairs),
		Expansions: int64(o.Expansions),
		Sequences:  int64(o.Sequences),
	}
	switch {
	case o.Outcome == DetectedConventional:
		d.Conv = 1
	case o.Outcome == DetectedMOT:
		d.MOT = 1
	case o.FailedConditionC:
		d.PrunedConditionC = 1
	}
	if r.ran {
		d.MOTFaults = 1
	}
	if metrics {
		d.ImplyCalls = r.implyCalls
		d.ImplyNS = r.implySampleNS << implySampleShift
		d.ResimVectorPasses = int64(r.resim.VectorPasses)
		d.ResimVectorFrames = int64(r.resim.VectorFrames)
		d.Step0NS = r.stages.Step0
		d.CollectNS = r.stages.Collect
		d.ExpandNS = r.stages.Expand
		d.ResimNS = r.stages.Resim
		d.TotalNS = r.stages.Total
		d.FullFrames = r.sim.FullFrames
		d.EventFrames = r.sim.EventFrames
		d.EventGateEvals = r.sim.EventGateEvals
		d.Events = r.sim.Events
	}
	return d
}

// livePublisher accumulates one run worker's deltas between
// publications in a plain LiveSnapshot — the publisher is owned by a
// single worker — and only flush touches the shared atomics, so the
// per-fault cost with live stats enabled is a few plain adds, and with
// them disabled a single nil check in the claim loop.
type livePublisher struct {
	live    *LiveStats
	metrics bool
	every   int
	n       int
	pending LiveSnapshot
}

// newLivePublisher returns a publisher for this simulator's worker, or
// nil when live stats are off.
func (s *Simulator) newLivePublisher() *livePublisher {
	if s.cfg.Live == nil {
		return nil
	}
	every := s.cfg.LiveEvery
	if every <= 0 {
		every = defaultLiveEvery
	}
	return &livePublisher{live: s.cfg.Live, metrics: s.cfg.Metrics, every: every}
}

// observe records one classified fault.
func (p *livePublisher) observe(r *faultRecord) {
	if p == nil {
		return
	}
	p.pending.Add(r.liveDelta(p.metrics))
	p.n++
	if p.n >= p.every {
		p.flush()
	}
}

// flush publishes the pending deltas. Safe to call at any point
// (including with nothing pending); each worker calls it once more when
// its claim loop ends, so the final snapshot equals the merged Result
// exactly.
func (p *livePublisher) flush() {
	if p == nil {
		return
	}
	p.live.add(&p.pending)
	p.pending, p.n = LiveSnapshot{}, 0
}
