package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/priu/obs"
	"repro/priu/store"
)

// recorder keeps the traced pass's spans in memory. Operations run one at a
// time, so every span recorded while an operation is open belongs to it;
// spans recorded between operations belong to operation 0.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []spanRec
	cur     *opInfo
	handler int // span of the current operation's open handler (0 = none)
	nextOp  int
	nonce   int64
	nextID  int
	pending string // trace ID reserved for the next HTTP request
	traces  []traceReq
	streams map[string][]*opInfo
}

// spanRec is one span of the span file. Start and End are milliseconds
// since the traced pass began; Parent 0 marks an operation's root.
type spanRec struct {
	ID     int     `json:"id"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// opInfo is one traced operation.
type opInfo struct {
	id      int
	root    int  // span ID of the operation's root span
	touched bool // the operation called store.Get
	missed  bool // its first store.Get restored from disk
}

// traceReq ties one HTTP request's X-Priu-Trace ID to the operation that
// issued it, so the server's own spans can be imported afterwards.
type traceReq struct {
	id string
	op *opInfo
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), nonce: time.Now().UnixNano() & 0xffffffff, streams: map[string][]*opInfo{}}
}

func (r *recorder) now() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e6 }

func (r *recorder) addLocked(op, parent int, name string, start, end float64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{ID: id, Op: op, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// begin opens an operation and its root span.
func (r *recorder) begin(kind string) *opInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	oi := &opInfo{id: r.nextOp}
	oi.root = r.addLocked(oi.id, 0, "op."+kind, r.now(), 0)
	r.cur, r.handler = oi, 0
	return oi
}

func (r *recorder) end(oi *opInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[oi.root-1].End = r.now()
	r.cur, r.handler = nil, 0
}

// start opens a span under the current operation: store spans nest under
// the operation's open handler span, everything else under its root.
func (r *recorder) start(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	op, parent := 0, 0
	if r.cur != nil {
		op, parent = r.cur.id, r.cur.root
		if strings.HasPrefix(name, "store.") && r.handler != 0 {
			parent = r.handler
		}
	}
	return r.addLocked(op, parent, name, r.now(), 0)
}

func (r *recorder) finish(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.now()
}

// noteGet records whether the current operation's first store.Get missed
// the resident tier.
func (r *recorder) noteGet(miss bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil && !r.cur.touched {
		r.cur.touched, r.cur.missed = true, miss
	}
}

// reserveTrace fixes the trace ID of the next HTTP request (a deletion
// stream whose server spans are split across several operations).
func (r *recorder) reserveTrace() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending = r.mintLocked()
	return r.pending
}

func (r *recorder) mintLocked() string {
	r.nextID++
	return fmt.Sprintf("%08x%08x", r.nonce, r.nextID)
}

// traceFor names the trace of an outgoing request.
func (r *recorder) traceFor() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.pending
	if id == "" {
		id = r.mintLocked()
	}
	r.pending = ""
	r.traces = append(r.traces, traceReq{id: id, op: r.cur})
	return id
}

// bindStream assigns a stream's server update spans, in order, to the
// operations that sent its batches.
func (r *recorder) bindStream(id string, ops []*opInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.streams[id] = ops
}

// importServer copies the server's own capture/update/what-if/snapshot
// spans for every traced request into the span list, under the operation
// that caused them.
func (r *recorder) importServer(tr *obs.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, req := range r.traces {
		view, ok := tr.Lookup(req.id)
		if !ok {
			continue
		}
		stream := r.streams[req.id]
		next := 0
		for _, root := range view.Spans {
			for _, sp := range root.Children {
				op := req.op
				if stream != nil {
					if sp.Name != "update" || next >= len(stream) {
						continue
					}
					op = stream[next]
					next++
				}
				if op == nil {
					continue
				}
				start := float64(view.Start.Sub(r.t0).Nanoseconds())/1e6 + float64(sp.StartUs)/1e3
				r.addLocked(op.id, op.root, serverSpanName(sp.Name), start, start+float64(sp.DurationUs)/1e3)
			}
		}
	}
}

// serverSpanName maps the service's span names onto the layer that runs
// inside them.
func serverSpanName(name string) string {
	if name == "snapshot.serialize" {
		return "priu." + name
	}
	return "core." + name
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTimes splits one operation's latency by layer: service is the
// handler span's self time, store the store calls, core the server's core
// spans; the rest is unattributed.
type layerTimes struct{ service, store, core float64 }

func (r *recorder) layers(oi *opInfo) layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	root := r.spans[oi.root-1]
	var lt layerTimes
	var handler float64
	for _, sp := range r.spans {
		if sp.Op != oi.id || sp.ID == oi.root {
			continue
		}
		d := sp.End - sp.Start
		switch {
		case strings.HasPrefix(sp.Name, "service."):
			// A stream handler that outlives the operation is not its cost.
			if sp.End > 0 && sp.End <= root.End {
				handler += d
			}
		case strings.HasPrefix(sp.Name, "store."):
			lt.store += d
		default:
			lt.core += d
		}
	}
	if handler > 0 {
		lt.service = handler - lt.store - lt.core
	}
	return lt
}

// spanDurations returns the durations of named spans that ran to
// completion inside an operation (of the given set, if not nil).
func (r *recorder) spanDurations(name string, ops map[int]bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	rootEnd := map[int]float64{}
	for _, sp := range r.spans {
		if sp.Parent == 0 && sp.Op != 0 {
			rootEnd[sp.Op] = sp.End
		}
	}
	var out []float64
	for _, sp := range r.spans {
		if sp.Name == name && sp.Op != 0 && sp.End > 0 && sp.End <= rootEnd[sp.Op] && (ops == nil || ops[sp.Op]) {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

// traceTransport stamps every request with an X-Priu-Trace ID the recorder
// knows, so the server's spans can be matched to operations.
type traceTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(obs.TraceHeader, t.rec.traceFor())
	return t.next.RoundTrip(req)
}

// handlerSpans times the service's http.Handler per route.
func handlerSpans(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := rec.start("service." + routeName(req))
		rec.mu.Lock()
		if rec.cur != nil && rec.spans[id-1].Op == rec.cur.id {
			rec.handler = id
		}
		rec.mu.Unlock()
		next.ServeHTTP(w, req)
		rec.mu.Lock()
		if rec.handler == id {
			rec.handler = 0
		}
		rec.mu.Unlock()
		rec.finish(id)
	})
}

func routeName(req *http.Request) string {
	p := strings.Trim(req.URL.Path, "/")
	parts := strings.Split(p, "/")
	switch {
	case p == "v2/sessions" && req.Method == http.MethodPost:
		return "create"
	case len(parts) == 3 && parts[1] == "sessions" && req.Method == http.MethodGet:
		return "get"
	case len(parts) == 3 && parts[1] == "sessions" && req.Method == http.MethodDelete:
		return "drop"
	case len(parts) == 4 && parts[1] == "sessions":
		return parts[3] // deletions, whatif, snapshot
	}
	return "other"
}

// timedStore times the store.Store calls the service makes. Embedding keeps
// every other method of the tiered store as is.
type timedStore struct {
	*store.Tiered
	mem *store.Memory
	rec *recorder
}

func (s *timedStore) Get(id string) (*store.Session, bool) {
	_, resident := s.mem.Get(id)
	sp := s.rec.start("store.get")
	sess, ok := s.Tiered.Get(id)
	s.rec.finish(sp)
	s.rec.noteGet(!resident && ok)
	return sess, ok
}

func (s *timedStore) Put(sess *store.Session) error {
	sp := s.rec.start("store.put")
	defer s.rec.finish(sp)
	return s.Tiered.Put(sess)
}

func (s *timedStore) Delete(id string) bool {
	sp := s.rec.start("store.delete")
	defer s.rec.finish(sp)
	return s.Tiered.Delete(id)
}
