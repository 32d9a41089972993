package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cir"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/tgen"
)

// runBody is the POST /runs body the clients send.
type runBody struct {
	Circuit string `json:"circuit,omitempty"`
	Bench   string `json:"bench,omitempty"`
	Random  int    `json:"random"`
	Seed    int64  `json:"seed"`
	Workers int    `json:"workers"`
}

// serveRequest is one request of a load: its body and its place in the
// mix (hot, fresh, novel or engine).
type serveRequest struct {
	body runBody
	kind string
}

// Request mix of serve-mixed, in requests per hundred; the rest are
// novel netlists. Each kind is spread evenly over the circuits, and hot
// requests evenly over the hot pairs, so that the work of a run depends
// on the seed only through which sequences and netlists it draws.
const (
	serveLength    = 64
	hotPer100      = 75 // circuit and trace hit after the first touch
	freshPer100    = 22 // circuit hit, trace miss
	hotSeedsPerCkt = 8
)

// serveCircuits are the built-in circuits serve-mixed requests run on.
var serveCircuits = []string{"sg208", "sg298", "sg344"}

// hotSeeds returns the sequence seeds of the hot set for a mix seed, per
// circuit in serveCircuits order.
func hotSeeds(seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int64, len(serveCircuits))
	for i := range out {
		for j := 0; j < hotSeedsPerCkt; j++ {
			out[i] = append(out[i], rng.Int63n(1<<30)+1)
		}
	}
	return out
}

// serveMix generates the n requests of serve-mixed from the seed, in a
// seeded random order: hot (circuit, seed) pairs, fresh seeds on the
// built-in circuits, and inline netlists of newly generated circuits
// that nothing has seen.
func serveMix(seed int64, n int) ([]serveRequest, error) {
	hot := hotSeeds(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	nc := len(serveCircuits)
	nHot, nFresh := n*hotPer100/100, n*freshPer100/100
	reqs := make([]serveRequest, 0, n)
	for j := 0; j < nHot; j++ {
		ci := j % nc
		body := runBody{Circuit: serveCircuits[ci], Random: serveLength, Seed: hot[ci][j/nc%hotSeedsPerCkt], Workers: 1}
		reqs = append(reqs, serveRequest{body, "hot"})
	}
	for j := 0; j < nFresh; j++ {
		body := runBody{Circuit: serveCircuits[j%nc], Random: serveLength, Seed: rng.Int63n(1<<40) + 1<<30, Workers: 1}
		reqs = append(reqs, serveRequest{body, "fresh"})
	}
	for j := len(reqs); j < n; j++ {
		p := circuits.GenParams{
			Name:   fmt.Sprintf("novel%d", j),
			Inputs: 6 + rng.Intn(6), Outputs: 2 + rng.Intn(6),
			FFs: 10 + rng.Intn(6), FreeFFs: 2, Gates: 100 + rng.Intn(60),
			Seed: rng.Int63(),
		}
		c, err := circuits.Generate(p)
		if err != nil {
			return nil, err
		}
		body := runBody{Bench: bench.Format(c), Random: serveLength, Seed: rng.Int63n(1<<30) + 1, Workers: 1}
		reqs = append(reqs, serveRequest{body, "novel"})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// httpServer is a loopback HTTP server running a handler.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func startHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after close
	}()
	return s, nil
}

// close shuts the server down and waits for its serve loop to exit.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves only stream handlers, closed next
	_ = s.hs.Close()
	<-s.done
}

// liveServer is an in-process motserve on a loopback listener.
type liveServer struct {
	*httpServer
	srv *serve.Server
}

// startServer builds a motserve server, serves it and waits until
// /healthz answers 200.
func startServer(cfg serve.Config) (*liveServer, error) {
	srv := serve.NewServer(cfg)
	hs, err := startHTTP(srv.Handler())
	if err != nil {
		return nil, err
	}
	ls := &liveServer{hs, srv}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ls.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Now().After(deadline) {
			ls.close()
			return nil, fmt.Errorf("motserve not healthy after 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the HTTP surface, then cancels and drains the runs.
func (ls *liveServer) close() {
	ls.httpServer.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = ls.srv.Close(ctx) // every run is finished by now
}

// serveConfig is motserve's default configuration for this host, with
// the registry sized to hold every request of the load.
func serveConfig(runs int) serve.Config {
	return serve.Config{
		MaxConcurrent: max(1, runtime.NumCPU()/2),
		MaxRuns:       runs,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// reqResult is what a client observed for one request.
type reqResult struct {
	ok                   bool
	err                  string
	start, posted        time.Time
	running, finished    time.Time
	circuitHit, traceHit bool
	events               int
	agg                  aggregates
}

// doneMS is the request's POST-to-done latency; a failed request counts
// as the full request timeout, missing any latency limit.
func (r *reqResult) doneMS() float64 {
	if !r.ok {
		return ms(requestTimeout)
	}
	return ms(r.finished.Sub(r.start))
}

// runStatus is the part of GET /runs/{id} the clients read.
type runStatus struct {
	ID     string `json:"id"`
	Faults int    `json:"faults"`
	Cache  *struct {
		CircuitHit bool `json:"circuit_hit"`
		TraceHit   bool `json:"trace_hit"`
	} `json:"cache"`
	Report *struct {
		Conv       int `json:"detected_conventional"`
		MOT        int `json:"detected_mot"`
		Identified int `json:"identified"`
		PrunedC    int `json:"pruned_condition_c"`
		Expansions int `json:"expansions"`
		Pairs      int `json:"pairs"`
		Sequences  int `json:"sequences"`
	} `json:"report"`
}

// doRequest submits one run, follows its event stream to the terminal
// status and fetches the finished report, the way a CI caller waits on
// a job.
func doRequest(ctx context.Context, cl *http.Client, base string, body runBody) reqResult {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	r := reqResult{start: time.Now()}
	b, err := json.Marshal(body)
	if err != nil {
		r.err = err.Error()
		return r
	}
	var st runStatus
	code, err := call(ctx, cl, http.MethodPost, base+"/runs", b, &st)
	if err != nil {
		r.err = "POST /runs: " + err.Error()
		return r
	}
	if code != http.StatusAccepted {
		r.err = fmt.Sprintf("POST /runs: status %d", code)
		return r
	}
	r.posted = time.Now()
	if st.Cache != nil {
		r.circuitHit, r.traceHit = st.Cache.CircuitHit, st.Cache.TraceHit
	}
	terminal, err := followEvents(ctx, cl, base+"/runs/"+st.ID+"/events", &r)
	if err != nil {
		r.err = "events: " + err.Error()
		return r
	}
	if terminal != serve.StatusDone {
		r.err = "run ended " + terminal
		return r
	}
	var fin runStatus
	if code, err = call(ctx, cl, http.MethodGet, base+"/runs/"+st.ID, nil, &fin); err != nil || code != http.StatusOK {
		r.err = fmt.Sprintf("GET /runs/%s: status %d %v", st.ID, code, err)
		return r
	}
	if fin.Report == nil {
		r.err = "done run has no report"
		return r
	}
	rp := fin.Report
	r.agg = aggregates{
		Faults: fin.Faults, Conv: rp.Conv, MOT: rp.MOT, Identified: rp.Identified,
		PrunedC: rp.PrunedC, Pairs: rp.Pairs, Expansions: rp.Expansions, Sequences: rp.Sequences,
	}
	r.ok = true
	return r
}

// call sends one request and decodes a JSON answer into out when the
// status is 2xx.
func call(ctx context.Context, cl *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// followEvents reads the run's SSE stream until a terminal status,
// stamping when "running" and the terminal status arrive and counting
// events.
func followEvents(ctx context.Context, cl *http.Client, url string, r *reqResult) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var name, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			r.events++
			if name == "status" {
				var st struct{ Status string }
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					return "", err
				}
				switch st.Status {
				case serve.StatusRunning:
					r.running = time.Now()
				case serve.StatusDone, serve.StatusFailed, serve.StatusCanceled:
					r.finished = time.Now()
					if r.running.IsZero() {
						r.running = r.finished
					}
					return st.Status, nil
				}
			}
			name, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("stream ended without a terminal status")
}

// runLoad drives reqs through a closed loop of clients: each client
// takes the next request only after its previous one finished. With a
// tracer, every request gets client-side spans.
func runLoad(ctx context.Context, cl *http.Client, base string, reqs []serveRequest, clients int, t *tracer) []reqResult {
	out := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(track int32) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := doRequest(ctx, cl, base, reqs[i].body)
				recordRequest(t, &r, track)
				out[i] = r
			}
		}(int32(c + 1))
	}
	wg.Wait()
	return out
}

// recordRequest turns a request's client-side timestamps into spans: a
// request root with POST, queue and exec children. It runs after the
// request ended, outside every timed interval.
func recordRequest(t *tracer, r *reqResult, track int32) {
	if t == nil {
		return
	}
	end := r.finished
	if !r.ok || end.IsZero() {
		end = time.Now()
	}
	root := t.add(0, "serve.request", 0, track, r.start, end)
	if r.posted.IsZero() {
		return
	}
	t.add(0, "serve.POST", root, track, r.start, r.posted)
	if r.running.IsZero() {
		return
	}
	t.add(0, "serve.queue", root, track, r.posted, r.running)
	t.add(0, "serve.exec", root, track, r.running, r.finished)
}

// scrapeResult summarizes a scraper's reads.
type scrapeResult struct {
	latencies []float64
	lastBytes int
	errors    int
}

// scraper GETs a /metrics URL on a fixed cadence until stopped.
type scraper struct {
	stopc chan struct{}
	done  chan struct{}
	res   scrapeResult
}

func startScraper(url string, every time.Duration, t *tracer) *scraper {
	s := &scraper{stopc: make(chan struct{}), done: make(chan struct{})}
	cl := &http.Client{Timeout: 30 * time.Second}
	go func() {
		defer close(s.done)
		defer cl.CloseIdleConnections()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			start := time.Now()
			n, err := scrape(cl, url)
			end := time.Now()
			if err != nil {
				s.res.errors++
				continue
			}
			t.add(0, "metrics.scrape", 0, scrapeTrack, start, end)
			s.res.latencies = append(s.res.latencies, ms(end.Sub(start)))
			s.res.lastBytes = n
		}
	}()
	return s
}

// stop ends the scraper, waits for it and returns what it saw.
func (s *scraper) stop() scrapeResult {
	close(s.stopc)
	<-s.done
	return s.res
}

// scrape reads one exposition and returns its size.
func scrape(cl *http.Client, url string) (int, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return int(n), err
}

// verifier computes the engine result for a request's (circuit,
// vectors) independently of the server.
type verifier struct {
	circuits map[string]*netlist.Circuit
	results  map[string]aggregates
}

func newVerifier() *verifier {
	return &verifier{circuits: make(map[string]*netlist.Circuit), results: make(map[string]aggregates)}
}

// expected returns the whole-list aggregates of a plain engine run on
// the request's circuit and sequence.
func (v *verifier) expected(b runBody) (aggregates, error) {
	src := "name:" + b.Circuit
	if b.Bench != "" {
		src = b.Bench
	}
	key := fmt.Sprintf("%s|%d|%d", src, b.Random, b.Seed)
	if a, ok := v.results[key]; ok {
		return a, nil
	}
	c, ok := v.circuits[src]
	if !ok {
		var err error
		if b.Bench != "" {
			c, err = bench.ParseString("request.bench", b.Bench)
		} else {
			c, err = circuits.ByName(b.Circuit)
		}
		if err != nil {
			return aggregates{}, err
		}
		v.circuits[src] = c
	}
	T := tgen.Random(c.NumInputs(), b.Random, b.Seed)
	sim, err := core.NewSimulator(c, T, core.DefaultConfig())
	if err != nil {
		return aggregates{}, err
	}
	res, err := sim.Run(fault.CollapsedList(c), nil)
	if err != nil {
		return aggregates{}, err
	}
	a := aggregatesOf(res)
	v.results[key] = a
	return a, nil
}

// close releases the compiled IR of the verifier's circuits.
func (v *verifier) close() {
	for _, c := range v.circuits {
		cir.Drop(c)
	}
}

// passResult is what one serve pass measured.
type passResult struct {
	results    []reqResult
	scrapes    scrapeResult
	wall       time.Duration
	use        usage
	heapMB     float64
	setupS     float64
	finalBytes int
	accepted   int
}

// timedStart starts a server for reqs and returns it with the time from
// NewServer until /healthz answered 200.
func timedStart(reqs []serveRequest) (*liveServer, float64, error) {
	start := time.Now()
	ls, err := startServer(serveConfig(len(reqs)))
	return ls, time.Since(start).Seconds(), err
}

// servePass starts motserve, runs reqs through a closed loop of clients
// with a scraper beside them, then checks every finished report against
// the engine. Failed or mismatching requests count in rep.failed. The
// server start-up is timed `setups` times, half before the load (the
// last of these serves it) and half after, so the median samples both
// ends of the run. With a tracer, the clients and the scraper record
// spans.
func servePass(reqs []serveRequest, clients, setups int, t *tracer, rep *report) (*passResult, error) {
	pr := &passResult{}
	var ls *liveServer
	var times []float64
	for i := 0; i < max(1, setups/2); i++ {
		if ls != nil {
			ls.close()
		}
		var s float64
		var err error
		if ls, s, err = timedStart(reqs); err != nil {
			return nil, err
		}
		times = append(times, s)
	}
	defer ls.close()

	tr := &http.Transport{MaxIdleConnsPerHost: 4 * clients, DisableCompression: true}
	cl := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), loadDeadline)
	defer cancel()

	scr := startScraper(ls.url+"/metrics", scrapeEvery, t)
	before := sampleUsage()
	start := time.Now()
	pr.results = runLoad(ctx, cl, ls.url, reqs, clients, t)
	pr.wall = time.Since(start)
	pr.use = sampleUsage().sub(before)
	pr.scrapes = scr.stop()
	n, err := scrape(cl, ls.url+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("final scrape: %w", err)
	}
	pr.finalBytes = n
	pr.heapMB = liveHeapMB()
	for len(times) < setups {
		spare, s, err := timedStart(reqs)
		if err != nil {
			return nil, err
		}
		spare.close()
		times = append(times, s)
	}
	pr.setupS = median(times)

	if pr.scrapes.errors > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d /metrics scrapes failed", pr.scrapes.errors))
	}
	accepted, err := checkResults(reqs, pr.results, rep)
	if err != nil {
		return nil, err
	}
	pr.accepted = accepted
	return pr, nil
}

// checkResults counts every request as attempted and every refused,
// failed or wrong one as failed: a non-2xx POST, a run that did not end
// done, and a report that differs from the engine's result for the same
// (circuit, vectors). It returns how many requests the server accepted.
func checkResults(reqs []serveRequest, results []reqResult, rep *report) (int, error) {
	v := newVerifier()
	defer v.close()
	accepted := 0
	for i := range results {
		r := &results[i]
		rep.attempted++
		if !r.posted.IsZero() {
			accepted++
		}
		if !r.ok {
			rep.fail(fmt.Sprintf("request %d (%s): %s", i, reqs[i].kind, r.err))
			continue
		}
		want, err := v.expected(reqs[i].body)
		if err != nil {
			return 0, fmt.Errorf("request %d: engine reference: %w", i, err)
		}
		if r.agg != want {
			r.ok = false
			rep.fail(fmt.Sprintf("request %d (%s): report %v, engine %v", i, reqs[i].kind, r.agg, want))
		}
	}
	return accepted, nil
}

// setServeLayers fills the serve, cache and metrics per-layer metrics
// from a pass.
func setServeLayers(rep *report, pr *passResult) {
	var post, queue, exec, execHit, execMiss, events []float64
	var circuitHits, traceHits int
	var execSum, hitSum, missSum, circuitMissSum float64
	for i := range pr.results {
		r := &pr.results[i]
		if r.posted.IsZero() {
			continue
		}
		post = append(post, ms(r.posted.Sub(r.start)))
		if r.circuitHit {
			circuitHits++
		}
		if r.traceHit {
			traceHits++
		}
		if r.finished.IsZero() {
			continue
		}
		queue = append(queue, ms(r.running.Sub(r.posted)))
		e := ms(r.finished.Sub(r.running))
		exec = append(exec, e)
		execSum += e
		switch {
		case r.traceHit:
			execHit = append(execHit, e)
			hitSum += e
		case r.circuitHit:
			execMiss = append(execMiss, e)
			missSum += e
		default:
			execMiss = append(execMiss, e)
			circuitMissSum += e
		}
		events = append(events, float64(r.events))
	}
	n := func(xs []float64) string { return fmt.Sprintf("median of %d requests", len(xs)) }
	rep.set("serve.post_ms_p50", median(post), n(post))
	rep.set("serve.queue_ms_p50", median(queue), n(queue))
	rep.set("serve.exec_ms_p50", median(exec), n(exec))
	rep.set("serve.exec_ms_trace_hit_p50", median(execHit), n(execHit))
	rep.set("serve.exec_ms_trace_miss_p50", median(execMiss), n(execMiss))
	share := fmt.Sprintf("of %.1f ms summed exec time over %d runs", execSum, len(exec))
	rep.set("serve.exec_share_trace_hit", hitSum/execSum, "trace-hit runs' share "+share)
	rep.set("serve.exec_share_trace_miss", missSum/execSum, "circuit-hit, trace-miss runs' share "+share)
	rep.set("serve.exec_share_circuit_miss", circuitMissSum/execSum, "circuit-miss runs' share "+share)
	acc := float64(pr.accepted)
	rep.set("cache.circuit_hit_ratio", float64(circuitHits)/acc, fmt.Sprintf("%d of %d accepted runs", circuitHits, pr.accepted))
	rep.set("cache.trace_hit_ratio", float64(traceHits)/acc, fmt.Sprintf("%d of %d accepted runs", traceHits, pr.accepted))
	rep.set("serve.registry_runs", acc, "runs retained by the registry at the end")
	rep.set("metrics.scrape_bytes", float64(pr.finalBytes), "final /metrics exposition")
	rep.set("serve.sse_events_per_run", mean(events), fmt.Sprintf("mean over %d runs", len(events)))
}

// noteKinds prints, per request kind, its share of the requests and of
// the summed server exec time (SSE running until done), with its exec
// p50, so that a claim on serve-mixed can be read per kind.
func noteKinds(rep *report, reqs []serveRequest, results []reqResult) {
	exec := make(map[string][]float64)
	count := make(map[string]int)
	var kinds []string
	var total float64
	for i := range results {
		r, kind := &results[i], reqs[i].kind
		if count[kind] == 0 {
			kinds = append(kinds, kind)
		}
		count[kind]++
		if r.ok {
			e := ms(r.finished.Sub(r.running))
			exec[kind] = append(exec[kind], e)
			total += e
		}
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		var sum float64
		for _, e := range exec[kind] {
			sum += e
		}
		rep.note(fmt.Sprintf("mix %-5s %4d requests (%5.1f%%), %5.1f%% of server exec time, exec p50 %.3f ms over %d done",
			kind, count[kind], 100*float64(count[kind])/float64(len(results)), 100*sum/total, median(exec[kind]), len(exec[kind])))
	}
}

// serveRequests is the fixed request count of a serve-mixed run.
func serveRequests(seconds int) int {
	return max(minServeRequests, requestsPerSecond*seconds)
}

// runServe is the untraced serve-mixed workload.
func runServe(rc runConfig) (*report, error) {
	rep := newReport()
	reqs, err := serveMix(rc.seed, serveRequests(rc.seconds))
	if err != nil {
		return nil, err
	}
	pr, err := servePass(reqs, serveClients, setupReps, nil, rep)
	if err != nil {
		return nil, err
	}
	noteKinds(rep, reqs, pr.results)
	var done, faults float64
	lat := doneMSOf(pr.results)
	for i := range pr.results {
		r := &pr.results[i]
		if r.ok {
			done++
			faults += float64(r.agg.Faults)
		}
	}
	wall := pr.wall.Seconds()
	total := float64(len(reqs))
	nReq := fmt.Sprintf("%d requests, %d clients", len(reqs), serveClients)
	rep.set("setup_s", pr.setupS, fmt.Sprintf("median of %d server start-ups, before and after the load", setupReps))
	rep.set("faults_per_s", faults/wall, "faults classified by done runs per second of load; "+nReq)
	rep.set("runs_per_s", done/wall, nReq)
	p95, beyond := percentile(lat, 0.95)
	rep.set("done_ms_p50", median(lat), nReq)
	rep.set("done_ms_p95", p95, fmt.Sprintf("%s, %d beyond", nReq, beyond))
	rep.set("scrape_ms_p50", median(pr.scrapes.latencies), fmt.Sprintf("%d scrapes", len(pr.scrapes.latencies)))
	rep.set("cpu_ms_per_op", ms(pr.use.cpu)/total, "process CPU (server and clients) per request")
	rep.set("alloc_mb_per_op", float64(pr.use.alloc)/1e6/total, "process allocation (server and clients) per request")
	rep.set("heap_mb", pr.heapMB, fmt.Sprintf("live heap with %d runs retained, after a GC", pr.accepted))
	return rep, nil
}

// traceServe is the traced serve-mixed workload: the load once without
// and once with client-side spans, then the engine layer replays on the
// first hot (circuit, seed) pair of each circuit.
func traceServe(rc runConfig) (*report, *tracer, error) {
	rep := newReport()
	t := newTracer()
	reqs, err := serveMix(rc.seed, serveRequests(rc.seconds))
	if err != nil {
		return nil, nil, err
	}
	plain, err := servePass(reqs, serveClients, 1, nil, rep)
	if err != nil {
		return nil, nil, err
	}
	pr, err := servePass(reqs, serveClients, 1, t, rep)
	if err != nil {
		return nil, nil, err
	}
	setServeLayers(rep, pr)
	noteKinds(rep, reqs, pr.results)

	hot := hotSeeds(rc.seed)
	groups := make([]caseGroup, len(serveCircuits))
	for i, name := range serveCircuits {
		groups[i] = caseGroup{name, serveLength, hot[i][:1]}
	}
	cases, err := buildCases(groups, core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	defer dropCases(cases)
	if err := traceEngineLayers(t, groups, cases, nil, 0, serveLayerCycles, rep); err != nil {
		return nil, nil, err
	}
	// On serve-mixed the end-to-end number is POST-to-done, so the
	// overhead is that of the traced pass over the untraced one.
	rep.set("trace.overhead_ms", median(doneMSOf(pr.results))-median(doneMSOf(plain.results)),
		fmt.Sprintf("POST-to-done p50 of the traced minus the untraced pass, %d requests each", len(reqs)))
	return rep, t, nil
}

// doneMSOf returns the POST-to-done latency of every request.
func doneMSOf(results []reqResult) []float64 {
	lat := make([]float64, len(results))
	for i := range results {
		lat[i] = results[i].doneMS()
	}
	return lat
}
