package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/xtrace"
)

// statusWriter captures the response status for the access log and
// request span, and holds the response body until the handler returns,
// so a request is fully accounted (route window, span, access log)
// before its client can read the complete response. A Flush — the SSE
// stream — releases the held bytes and switches to pass-through.
type statusWriter struct {
	http.ResponseWriter
	code      int
	body      bytes.Buffer
	streaming bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.streaming {
		return w.ResponseWriter.Write(p)
	}
	return w.body.Write(p)
}

// Flush releases the held body and forwards the flush, so wrapping the
// response does not break the SSE event stream.
func (w *statusWriter) Flush() {
	w.release()
	w.streaming = true
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// release writes the held body through.
func (w *statusWriter) release() {
	if w.body.Len() > 0 {
		_, _ = w.ResponseWriter.Write(w.body.Bytes())
		w.body.Reset()
	}
}

// withTelemetry wraps the mux with the request-level observability
// stack: the request counter, one span per request on the server's
// tracer (joined to the caller's trace when the request carries a W3C
// traceparent header, and always emitting one on the response so
// downstream workers can join ours), and one structured access-log
// line per request — method, path, status, duration, and the run ID
// when the request addressed one.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpRequests.Inc()
		start := s.tracer.Now()
		wall := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}

		name := r.Method + " " + r.URL.Path
		traceID, parent, _ := xtrace.ParseTraceparent(r.Header.Get("traceparent"))
		// Request span IDs need only uniqueness, not determinism — the
		// request sequence number is the hash key.
		id := xtrace.DeriveID(parent, name, uint64(s.reqSeq.Add(1)))
		if traceID == "" {
			traceID = xtrace.NewTraceID(id)
		}
		sw.Header().Set("traceparent", xtrace.FormatTraceparent(traceID, id))

		next.ServeHTTP(sw, r)

		dur := time.Since(wall)
		if win := s.routeWin[routeName(r.Method, r.URL.Path)]; win != nil {
			win.Observe(int64(dur))
		}
		attrs := []xtrace.Attr{
			{Key: "method", Val: r.Method},
			{Key: "path", Val: r.URL.Path},
			{Key: "status", Val: strconv.Itoa(sw.code)},
			{Key: "trace", Val: traceID},
		}
		logAttrs := []any{
			"method", r.Method, "path", r.URL.Path,
			"status", sw.code, "dur", dur.Round(time.Microsecond),
			"trace", traceID,
		}
		if runID := requestRunID(r, sw); runID != "" {
			attrs = append(attrs, xtrace.Attr{Key: "run", Val: runID})
			logAttrs = append(logAttrs, "run", runID)
		}
		s.tracer.Record(xtrace.Span{
			ID: id, Parent: parent, Name: name,
			Track: s.httpTrack, Start: start, Dur: int64(dur),
			Attrs: attrs,
		})
		s.log.Info("request", logAttrs...)
		sw.release()
	})
}

// routeNames lists every route label a request can map to; the server
// registers one rolling latency window per label.
var routeNames = []string{
	"run_create", "run_list", "run_get", "run_delete",
	"run_events", "run_trace", "debug", "metrics", "healthz", "other",
}

// routeName maps a request to its telemetry route label. It is a pure
// function of the method and path because withTelemetry wraps outside
// the mux, where the matched pattern is not available; unrecognized
// paths collapse into "other" so the label set stays fixed.
func routeName(method, path string) string {
	switch {
	case path == "/metrics":
		return "metrics"
	case path == "/healthz":
		return "healthz"
	case path == "/runs":
		if method == http.MethodPost {
			return "run_create"
		}
		return "run_list"
	case strings.HasPrefix(path, "/runs/"):
		switch {
		case strings.HasSuffix(path, "/events"):
			return "run_events"
		case strings.HasSuffix(path, "/trace"):
			return "run_trace"
		case method == http.MethodDelete:
			return "run_delete"
		default:
			return "run_get"
		}
	case strings.HasPrefix(path, "/debug/"):
		return "debug"
	}
	return "other"
}

// requestRunID extracts the run a request addressed: the {id} path
// segment of /runs/{id}..., or the X-Run-ID response header a
// successful POST /runs sets for the run it created.
func requestRunID(r *http.Request, sw *statusWriter) string {
	if id := sw.Header().Get("X-Run-ID"); id != "" {
		return id
	}
	rest := strings.TrimPrefix(r.URL.Path, "/runs/")
	if rest == r.URL.Path || rest == "" {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// handleTrace is GET /runs/{id}/trace: the run's span tree as Chrome
// trace-event JSON, loadable in ui.perfetto.dev or chrome://tracing.
// Safe on a still-running run — the export snapshots the spans merged
// so far (worker buffers flush incrementally), yielding a partial but
// well-formed trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	run := s.lookup(w, r)
	if run == nil {
		return
	}
	if run.tracer == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("run %s has no tracer", run.ID))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", run.ID+".trace.json"))
	_ = run.tracer.WriteChromeTrace(w)
}

// handleDebugEvents is GET /debug/events: the shared span flight
// recorder (HTTP request spans plus every run's spans) as JSONL,
// oldest first. ?n= bounds the dump to the most recent n spans.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("n must be a non-negative integer, got %q", v))
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = xtrace.WriteJSONL(w, s.ring.Recent(n))
}
