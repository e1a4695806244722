package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/obs"
	"repro/internal/oplog"
)

// Handler is the HTTP/JSON front end cmd/dqserve mounts:
//
//	POST /batch       ingest an op-log stream (internal/oplog wire
//	                  format); each commit becomes one Submit
//	GET  /violations  the full published violation list (JSON, or one
//	                  String() per line with ?format=text)
//	GET  /stats       counters, per-class/-relation/-constraint counts
//	GET  /stream      Server-Sent Events of per-commit gained/cleared
//	                  deltas; a dropped slow consumer gets a final
//	                  "resync" event
//	POST /check       SatisfiesBatch probe: rule texts evaluated
//	                  against the published snapshot
//	GET  /healthz     liveness
//	GET  /metrics     Prometheus text exposition (404 when the service
//	                  was built without an ObsConfig)
//	GET  /trends      per-constraint violation time series, change
//	                  points and window rates (?points=N caps points)
//
// Every read is served off the immutable published State; only POST
// /batch talks to the single-writer ingest loop.
type Handler struct {
	Svc *Service
	// OnEvent, when non-nil, runs after each SSE event is written and
	// flushed — a test seam: blocking here models a consumer that has
	// stopped draining its stream.
	OnEvent func(event string)
	// MaxBatchBytes overrides the POST /batch body cap (default
	// DefaultMaxBatchBytes). A body over the cap is rejected with 413.
	MaxBatchBytes int64

	mux *http.ServeMux
}

// NewHandler mounts the endpoints for a service.
func NewHandler(svc *Service) *Handler {
	h := &Handler{Svc: svc}
	h.mux = http.NewServeMux()
	h.mux.HandleFunc("POST /batch", h.handleBatch)
	h.mux.HandleFunc("GET /violations", h.handleViolations)
	h.mux.HandleFunc("GET /stats", h.handleStats)
	h.mux.HandleFunc("GET /stream", h.handleStream)
	h.mux.HandleFunc("POST /check", h.handleCheck)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /trends", h.handleTrends)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// writeJSON renders one response object.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Request body ceilings: an op-log ingest is bounded ops, not a bulk
// load (use the CSV loading path for that); a rule probe is a rule
// file.
const (
	// DefaultMaxBatchBytes is the POST /batch body cap when
	// Handler.MaxBatchBytes is unset.
	DefaultMaxBatchBytes = 64 << 20

	maxCheckBytes = 1 << 20
)

// handleBatch ingests an op-log stream: parse it all first (a syntax
// error rejects the whole request with its line position, before any
// mutation), then Submit each commit batch in order and wait for the
// acks.
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	maxBody := h.MaxBatchBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBatchBytes
	}
	batches, err := oplog.Parse(http.MaxBytesReader(w, r.Body, maxBody), h.Svc.Schemas())
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			// The cap tripped mid-read: the client sent more than the
			// server will buffer for one ingest. 413, not 400 — the stream
			// may be perfectly well-formed, just too large.
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
			return
		}
		var se *oplog.SyntaxError
		if errors.As(err, &se) {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": se.Err.Error(),
				"line":  se.Line,
			})
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := struct {
		Seq     uint64 `json:"seq"`
		Batches int    `json:"batches"`
		Ops     int    `json:"ops"`
		Gained  int    `json:"gained"`
		Cleared int    `json:"cleared"`
		Error   string `json:"error,omitempty"`
	}{Seq: h.Svc.State().Seq}
	for _, batch := range batches {
		res, err := h.Svc.Submit(r.Context(), batch)
		var oe *OpError
		if errors.As(err, &oe) {
			// The request failed validation: nothing of this batch was
			// applied (the earlier batches' commits stand) and the service
			// state is untouched. 400 with the op position and reason.
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": oe.Reason,
				"op":    oe.Index,
				"batch": resp.Batches, // index of the rejected batch in the stream
				"seq":   resp.Seq,
			})
			return
		}
		if errors.Is(err, ErrReadOnly) {
			// Degraded: writes refused, reads still served. Structured
			// reason so clients and probes can tell this from overload.
			hs, reason := h.Svc.Health()
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":  "service is read-only",
				"status": hs.String(),
				"reason": reason,
			})
			return
		}
		if errors.Is(err, ErrStopped) {
			writeError(w, http.StatusServiceUnavailable, "service stopping")
			return
		}
		if errors.Is(err, ErrBusy) || errors.Is(err, ErrWAL) {
			// Overload or a durability failure: the client should back off
			// and retry (against this process for ErrBusy, against the
			// restarted one for ErrWAL — either way reads keep working).
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		if err != nil && res.Err == nil {
			// Not a commit verdict but a transport condition (the request
			// context was cancelled before the ack): the batch may or may
			// not still be applied, and the client is gone — don't count
			// it, don't dress it up as an op conflict.
			return
		}
		resp.Seq = res.Seq
		resp.Batches++
		resp.Ops += len(batch)
		resp.Gained += res.Gained
		resp.Cleared += res.Cleared
		if err != nil {
			// An op error: the batch's applied prefix stands and the
			// service stayed consistent, but the client's stream was not
			// applied in full — stop here and say so.
			resp.Error = err.Error()
			writeJSON(w, http.StatusConflict, resp)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ViolationsText renders a violation list as the canonical plain-text
// report: one String() per line. GET /violations?format=text returns
// exactly these bytes, which is what the oracle tests compare against
// a fresh Engine.DetectBatch.
func ViolationsText(vs []detect.Violation) string { return string(appendText(nil, vs)) }

// handleViolations streams the published list leaf by leaf: each
// leaf's encoding is memoised on the immutable State's leaves, so a
// read encodes only the leaves no earlier read of this or an older
// State has, and writes the rest as stored bytes. The JSON body is
// byte-identical to encoding/json of
//
//	{"seq":N,"total":T,"violations":[…]}
//
// with HTML escaping off, as writeJSON renders every other response.
func (h *Handler) handleViolations(w http.ResponseWriter, r *http.Request) {
	st := h.Svc.State()
	leaves := st.viols.leaves
	chunks := make([][]byte, 0, 2*len(leaves)+2)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, l := range leaves {
			chunks = append(chunks, l.textBytes())
		}
	} else {
		w.Header().Set("Content-Type", "application/json")
		head := fmt.Appendf(nil, `{"seq":%d,"total":%d,"violations":[`, st.Seq, st.NumViolations())
		chunks = append(chunks, head)
		for i, l := range leaves {
			if i > 0 {
				chunks = append(chunks, comma)
			}
			chunks = append(chunks, l.jsonBytes(h.Svc.rules))
		}
		chunks = append(chunks, listTail)
	}
	size := 0
	for _, c := range chunks {
		size += len(c)
	}
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.WriteHeader(http.StatusOK)
	// Coalesce the per-leaf chunks (~10 KiB each) into fewer, larger
	// socket writes. A failed write means the client is gone: nothing
	// to undo, and the remaining writes fail fast.
	bw := bufio.NewWriterSize(w, 64<<10)
	for _, c := range chunks {
		bw.Write(c)
	}
	bw.Flush()
}

var (
	comma    = []byte(",")
	listTail = []byte("]}\n")
)

// shardStatsJSON is one shard's slice of /stats: its tuple count
// (summed over relations) and its violation count (violations whose
// primary tuple it holds).
type shardStatsJSON struct {
	Shard      int `json:"shard"`
	Tuples     int `json:"tuples"`
	Violations int `json:"violations"`
}

// shardStatsFor assembles the per-shard section from an immutable
// State: tuples from the published shard snapshots, violations from
// the sequencer's tally.
func shardStatsFor(st *State) []shardStatsJSON {
	if st.Shards == nil {
		return nil
	}
	out := make([]shardStatsJSON, len(st.Shards))
	for i, ds := range st.Shards {
		out[i].Shard = i
		for _, name := range ds.Names() {
			if snap, ok := ds.Snapshot(name); ok {
				out[i].Tuples += snap.Len()
			}
		}
		if i < len(st.ShardViolations) {
			out[i].Violations = st.ShardViolations[i]
		}
	}
	return out
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	st := h.Svc.State()
	relations := make(map[string]int)
	if st.Snapshot != nil {
		for _, name := range st.Snapshot.Names() {
			if snap, ok := st.Snapshot.Snapshot(name); ok {
				relations[name] = snap.Len()
			}
		}
	} else {
		for _, ds := range st.Shards {
			for _, name := range ds.Names() {
				if snap, ok := ds.Snapshot(name); ok {
					relations[name] += snap.Len()
				}
			}
		}
	}
	var durability *DurabilityStats
	if ds, ok := h.Svc.Durability(); ok {
		durability = &ds
	}
	writeJSON(w, http.StatusOK, struct {
		Seq           uint64           `json:"seq"`
		UptimeSeconds float64          `json:"uptimeSeconds"`
		Relations     map[string]int   `json:"relations"`
		Constraints   int              `json:"constraints"`
		Violations    int              `json:"violations"`
		Ops           uint64           `json:"ops"`
		Gained        uint64           `json:"gained"`
		Cleared       uint64           `json:"cleared"`
		Errors        uint64           `json:"errors"`
		FullSyncs     int              `json:"fullSyncs"`
		Subscribers   int              `json:"subscribers"`
		QueueDepth    int              `json:"queueDepth"`
		QueueCap      int              `json:"queueCap"`
		ShardCount    int              `json:"shardCount"`
		Shards        []shardStatsJSON `json:"shards,omitempty"`
		Durability    *DurabilityStats `json:"durability,omitempty"`
		Counts        Counts           `json:"counts"`
	}{
		Seq:           st.Seq,
		UptimeSeconds: h.Svc.Uptime().Seconds(),
		Relations:     relations,
		Constraints:   len(h.Svc.Constraints()),
		Violations:    st.NumViolations(),
		Ops:           st.Ops,
		Gained:        st.Gained,
		Cleared:       st.Cleared,
		Errors:        st.Errs,
		FullSyncs:     st.FullSyncs,
		Subscribers:   h.Svc.NumSubscribers(),
		QueueDepth:    h.Svc.QueueDepth(),
		QueueCap:      h.Svc.QueueCap(),
		ShardCount:    h.Svc.Shards(),
		Shards:        shardStatsFor(st),
		Durability:    durability,
		Counts:        h.Svc.countsFor(st), // same State as the top-level fields
	})
}

// deltaJSON renders one commit's diff as its SSE payload,
// {"seq":N,"gained":[…],"cleared":[…]}, with the violation encoder of
// GET /violations.
func (h *Handler) deltaJSON(d Delta) []byte {
	b := strconv.AppendUint(append([]byte(nil), `{"seq":`...), d.Seq, 10)
	b = append(b, `,"gained":[`...)
	b = h.Svc.rules.appendJSONList(b, d.Gained)
	b = append(b, `],"cleared":[`...)
	b = h.Svc.rules.appendJSONList(b, d.Cleared)
	return append(b, "]}"...)
}

// handleStream serves the delta subscription as Server-Sent Events:
// a "hello" event naming the subscription Seq (the client's resync
// anchor: GET /violations at or after that Seq plus the deltas
// reconstructs every later state), then one "delta" event per commit.
// A consumer that falls behind the channel buffer is dropped by the
// ingest loop and gets a terminal "resync" event: reconnect and
// re-read /violations.
func (h *Handler) handleStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub := h.Svc.Subscribe()
	defer sub.Close()

	// The server's global Read/Write timeouts are sized for one-shot
	// requests; an SSE stream is long-lived by design. Clear the
	// per-connection deadlines for this response only (best-effort: a
	// middleware wrapper without the controller seam keeps the global
	// policy).
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Time{})
	rc.SetWriteDeadline(time.Time{})

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	writeRaw := func(event string, data []byte) bool {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		if h.OnEvent != nil {
			h.OnEvent(event)
		}
		return true
	}
	writeEvent := func(event string, payload any) bool {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(payload); err != nil {
			return false
		}
		return writeRaw(event, bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	}

	if !writeEvent("hello", map[string]uint64{"seq": sub.Seq()}) {
		return
	}
	for {
		select {
		case delta, ok := <-sub.Events():
			if !ok {
				if sub.Lost() {
					writeEvent("resync", map[string]any{
						"seq":    h.Svc.State().Seq,
						"reason": "slow consumer: delta buffer overflowed",
					})
				}
				return
			}
			if !writeRaw("delta", h.deltaJSON(delta)) {
				return
			}
			// Change-point alerts ride the same commit's Delta; emit them
			// after the delta event so a consumer sees the diff that fired
			// the alert before the alert itself.
			for _, a := range delta.Alerts {
				if !writeEvent("alert", a) {
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// checkRequest carries rule-file texts for a satisfaction probe.
type checkRequest struct {
	CFDs  string `json:"cfds,omitempty"`
	CINDs string `json:"cinds,omitempty"`
	ECFDs string `json:"ecfds,omitempty"`
}

// handleCheck parses the posted rules against the served schemas and
// evaluates them on the published snapshot — a read: it never touches
// the live database or the ingest loop.
func (h *Handler) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req checkRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCheckBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	schemas := h.Svc.Schemas()
	var cs []detect.Constraint
	if req.CFDs != "" {
		rules, err := cfd.Parse(strings.NewReader(req.CFDs), schemas)
		if err != nil {
			writeError(w, http.StatusBadRequest, "cfds: %v", err)
			return
		}
		cs = append(cs, detect.WrapCFDs(rules)...)
	}
	if req.CINDs != "" {
		rules, err := cind.Parse(strings.NewReader(req.CINDs), schemas)
		if err != nil {
			writeError(w, http.StatusBadRequest, "cinds: %v", err)
			return
		}
		cs = append(cs, detect.WrapCINDs(rules)...)
	}
	if req.ECFDs != "" {
		rules, err := ecfd.Parse(strings.NewReader(req.ECFDs), schemas)
		if err != nil {
			writeError(w, http.StatusBadRequest, "ecfds: %v", err)
			return
		}
		cs = append(cs, detect.WrapECFDs(rules)...)
	}
	if len(cs) == 0 {
		writeError(w, http.StatusBadRequest, "no rules in request")
		return
	}
	seq, ok, err := h.Svc.CheckContext(r.Context(), cs)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone: the gather was cancelled, nobody is reading
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Seq       uint64 `json:"seq"`
		Rules     int    `json:"rules"`
		Satisfied bool   `json:"satisfied"`
	}{seq, len(cs), ok})
}

// handleHealthz reports the health state machine: "ok" while writes
// are accepted, "read-only" (still 200 — reads work, probes must not
// kill the process over a degraded disk) once durability failed, and
// "broken" with 503 once the ingest loop is gone and a restart is the
// only way forward.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hs, reason := h.Svc.Health()
	status := http.StatusOK
	if hs == Broken {
		status = http.StatusServiceUnavailable
	}
	st := h.Svc.State()
	resp := struct {
		Status   string `json:"status"`
		Writable bool   `json:"writable"`
		Reason   string `json:"reason,omitempty"`
		Seq      uint64 `json:"seq"`
		Shards   int    `json:"shards"`
		// Durable services only: how far the WAL tail has grown past the
		// last checkpoint — the replay cost a restart would pay right now.
		CheckpointLagSeqs *uint64 `json:"checkpointLagSeqs,omitempty"`
		WALBytes          *int64  `json:"walBytes,omitempty"`
	}{Status: hs.String(), Writable: hs == Healthy, Reason: reason,
		Seq: st.Seq, Shards: h.Svc.Shards()}
	if ds, ok := h.Svc.Durability(); ok {
		lag := st.Seq - ds.LastCheckpointSeq
		resp.CheckpointLagSeqs = &lag
		resp.WALBytes = &ds.WAL.Bytes
	}
	writeJSON(w, status, resp)
}

// handleMetrics serves the observability registry in Prometheus text
// exposition format. A service built without an ObsConfig has nothing
// to scrape: 404, so a scraper config error is loud rather than an
// empty-but-200 page.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := h.Svc.Metrics()
	if reg == nil {
		writeError(w, http.StatusNotFound, "observability disabled: service built without ObsConfig")
		return
	}
	reg.Handler().ServeHTTP(w, r)
}

// handleTrends serves the quality analytics: one entry per constraint
// with its violation-count time series, detected change points and
// sliding-window rates. ?points=N caps the points per constraint
// (default 128, 0 or "all" returns the whole ring).
func (h *Handler) handleTrends(w http.ResponseWriter, r *http.Request) {
	if h.Svc.Metrics() == nil {
		writeError(w, http.StatusNotFound, "observability disabled: service built without ObsConfig")
		return
	}
	points := 128
	if q := r.URL.Query().Get("points"); q != "" {
		if q == "all" {
			points = 0
		} else {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				writeError(w, http.StatusBadRequest, "bad points=%q: want a non-negative integer or \"all\"", q)
				return
			}
			points = n
		}
	}
	trends := h.Svc.Trends(points)
	changePoints := 0
	for _, tr := range trends {
		changePoints += len(tr.ChangePoints)
	}
	writeJSON(w, http.StatusOK, struct {
		Seq           uint64      `json:"seq"`
		UptimeSeconds float64     `json:"uptimeSeconds"`
		ChangePoints  int         `json:"changePoints"`
		Trends        []obs.Trend `json:"trends"`
	}{h.Svc.State().Seq, h.Svc.Uptime().Seconds(), changePoints, trends})
}
