// Package server is the networked PIM-as-a-service layer over the elp2im
// facade: a named bit-vector store and an HTTP/JSON API (vector CRUD,
// single ops, reductions, expression evaluation, stats) whose write path
// runs through a dynamic micro-batcher — concurrent requests arriving
// within a coalescing window fold into one Accelerator.Batch submission,
// so independent clients keep the modeled banks saturated the way the
// paper's multi-tenant framing intends.
//
// Around the batcher sits the robustness envelope a real service needs:
// bounded-queue admission control (503 + Retry-After under saturation),
// per-request deadlines propagated via context, panic-isolated handlers,
// graceful drain (stop admitting, flush everything queued, then stop),
// and a degraded mode that falls back to synchronous facade calls when
// the pipeline is disabled. Every serving-layer metric registers in the
// owning accelerator's observability context, so the existing Snapshot /
// ServeDebug surface shows the server.* series next to acc.* and
// pipeline.* (see observe.go for the name scheme).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	elp2im "repro"
)

// Config parameterizes a Server. The zero value of every optional field
// selects the documented default.
type Config struct {
	// Accelerator is the facade the server fronts. Exactly one of
	// Accelerator and Shard is required.
	Accelerator *elp2im.Accelerator
	// Shard, when set instead of Accelerator, fronts a sharded
	// multi-accelerator deployment: every vector name is placed
	// deterministically on a home shard (Store.shardOf), each shard runs
	// its own independent micro-batcher (window, admission queue, metric
	// series), and an operation executes on its destination's home shard.
	// One hot shard saturating its queue answers 503 + Retry-After without
	// stalling the others. Window/MaxBatch/MaxQueue apply per shard.
	Shard *elp2im.Shard
	// Window is the micro-batcher's coalescing window: requests arriving
	// within it fold into one batch. Zero means pass-through (flush
	// immediately with whatever has queued); negative is normalized to
	// zero. Default 200 µs when left zero — pass DisableWindow to force
	// true zero.
	Window time.Duration
	// DisableWindow forces a zero coalescing window (pass-through) even
	// though Window is zero-valued.
	DisableWindow bool
	// MaxBatch bounds the number of requests folded into one flush.
	// Default 64.
	MaxBatch int
	// MaxQueue bounds the admission queue; beyond it requests fail fast
	// with 503 + Retry-After. Default 1024.
	MaxQueue int
	// Degraded disables the batching pipeline: operations execute
	// synchronously through the facade.
	Degraded bool
	// RequestTimeout is the per-request deadline applied when the client
	// does not pass ?timeout_ms. Default 5 s; negative disables the
	// default deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Default 16 MiB (a 64-Mbit
	// vector payload is ~11 MiB of base64).
	MaxBodyBytes int64
	// EvalCacheSize bounds the compiled-program LRU shared by /v1/eval
	// and /v1/arith (entries, not bytes; see evalcache.go). Default 256.
	EvalCacheSize int
	// WireDisableCoalescing reverts the elpwire listener to one write
	// syscall per response instead of writev-batched flushes — a
	// benchmarking escape hatch surfaced as elpd -wire-nocoalesce.
	WireDisableCoalescing bool
}

// withDefaults normalizes cfg.
func (c Config) withDefaults() Config {
	if c.Window == 0 && !c.DisableWindow {
		c.Window = 200 * time.Microsecond
	}
	if c.Window < 0 {
		c.Window = 0
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.EvalCacheSize <= 0 {
		c.EvalCacheSize = defaultEvalCacheSize
	}
	return c
}

// Server is the HTTP serving layer: store + per-shard batchers + handler
// mux. Create one with New, mount Handler, and call Drain on shutdown.
// A single-module server (Config.Accelerator) runs one batcher; a sharded
// one (Config.Shard) runs one per shard, and requests route to their
// destination vector's home shard.
type Server struct {
	cfg      Config
	acc      *elp2im.Accelerator // shard 0's accelerator (identity, Eval on single)
	shard    *elp2im.Shard       // nil for a single-module server
	accs     []*elp2im.Accelerator
	store    *Store
	batchers []*Batcher
	obs      *serverMetrics
	cache    *evalCache
	matches  matchPool // pooled /v1/query match vectors
	mux      *http.ServeMux

	// Wire-listener connection tracking (see wire.go): live connections
	// accepted by ServeWire, so CloseWireConns can end them after Drain.
	wireMu    sync.Mutex
	wireConns map[net.Conn]struct{}
	wireWG    sync.WaitGroup
}

// New returns a server over cfg.Accelerator or cfg.Shard.
func New(cfg Config) (*Server, error) {
	if (cfg.Accelerator == nil) == (cfg.Shard == nil) {
		return nil, errors.New("server: exactly one of Config.Accelerator and Config.Shard is required")
	}
	cfg = cfg.withDefaults()
	var accs []*elp2im.Accelerator
	if cfg.Shard != nil {
		accs = make([]*elp2im.Accelerator, cfg.Shard.Shards())
		for i := range accs {
			accs[i] = cfg.Shard.ShardAccelerator(i)
		}
	} else {
		accs = []*elp2im.Accelerator{cfg.Accelerator}
	}
	// Serving-layer series register in the shard router's context when
	// sharded (its Snapshot merges every shard accelerator's registry), in
	// the accelerator's own otherwise.
	var obs *serverMetrics
	if cfg.Shard != nil {
		obs = newServerMetrics(cfg.Shard.Observability(), len(accs))
	} else {
		obs = newServerMetrics(cfg.Accelerator.Observability(), 1)
	}
	s := &Server{
		cfg:       cfg,
		acc:       accs[0],
		shard:     cfg.Shard,
		accs:      accs,
		store:     NewStore(len(accs)),
		obs:       obs,
		cache:     newEvalCache(cfg.EvalCacheSize, obs.evalCacheHits, obs.evalCacheMisses),
		wireConns: make(map[net.Conn]struct{}),
	}
	s.batchers = make([]*Batcher, len(accs))
	for i, acc := range accs {
		s.batchers[i] = newBatcher(acc, s.store, cfg.Window, cfg.MaxBatch, cfg.MaxQueue, cfg.Degraded, obs.shards[i])
	}
	s.mux = http.NewServeMux()
	// Vector routes take rest-of-path names ({name...}) so namespaced
	// bitmap indices ("<namespace>/<index>") are addressable over HTTP;
	// the exact-match list route still wins over the wildcard.
	s.mux.HandleFunc("PUT /v1/vectors/{name...}", s.wrap("put_vector", s.handlePutVector))
	s.mux.HandleFunc("GET /v1/vectors/{name...}", s.wrap("get_vector", s.handleGetVector))
	s.mux.HandleFunc("DELETE /v1/vectors/{name...}", s.wrap("delete_vector", s.handleDeleteVector))
	s.mux.HandleFunc("GET /v1/vectors", s.wrap("list_vectors", s.handleListVectors))
	s.mux.HandleFunc("POST /v1/op", s.wrap("op", s.handleOp))
	s.mux.HandleFunc("POST /v1/reduce", s.wrap("reduce", s.handleReduce))
	s.mux.HandleFunc("POST /v1/eval", s.wrap("eval", s.handleEval))
	s.mux.HandleFunc("POST /v1/arith", s.wrap("arith", s.handleArith))
	s.mux.HandleFunc("POST /v1/query", s.wrap("query", s.handleQuery))
	s.mux.HandleFunc("GET /v1/stats", s.wrap("stats", s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.wrap("health", s.handleHealth))
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the vector store (tests and embedding binaries).
func (s *Server) Store() *Store { return s.store }

// Batcher exposes shard 0's micro-batcher (tests and embedding binaries;
// the only batcher on a single-module server).
func (s *Server) Batcher() *Batcher { return s.batchers[0] }

// Shards returns the number of shards the server routes across (1 for a
// single-module server).
func (s *Server) Shards() int { return len(s.accs) }

// shardFor returns the home shard of the named vector — the shard whose
// batcher admits, and whose accelerator executes, operations writing it.
func (s *Server) shardFor(name string) int { return s.store.shardOf(name) }

// batcherFor returns the named destination's home-shard batcher.
func (s *Server) batcherFor(name string) *Batcher { return s.batchers[s.shardFor(name)] }

// Drain gracefully stops the serving layer: new operations are refused
// with 503 + Retry-After, everything already admitted flushes, and Drain
// returns once every shard's batcher is idle. Shards drain concurrently —
// a backed-up shard does not delay the others' flushes, only the final
// join. The HTTP listener is the caller's to stop (elpd shuts the
// http.Server down around this call).
func (s *Server) Drain() {
	var wg sync.WaitGroup
	for _, b := range s.batchers {
		wg.Add(1)
		go func(b *Batcher) {
			defer wg.Done()
			b.Drain()
		}(b)
	}
	wg.Wait()
}

// Totals returns the accumulated modeled cost of every operation the
// server executed: the single accelerator's session totals, or — sharded —
// the merged totals across every shard accelerator (and the router's
// central accounting, were any operation routed through it).
func (s *Server) Totals() elp2im.Stats {
	if s.shard != nil {
		return s.shard.AggregateTotals()
	}
	return s.acc.Totals()
}

// Stats assembles the /v1/stats payload. The flat Server section
// aggregates across shards (queue depths and rejections sum, occupancy
// averages over every flush); PerShard breaks the same counters out per
// home shard, alongside each shard's modeled busy time — the number a
// load generator divides by to see the modeled hardware's aggregate
// throughput scale with the shard count.
func (s *Server) Stats() StatsPayload {
	var agg ServerStats
	perShard := make([]ShardStats, len(s.batchers))
	vecs := s.store.sizeByShard()
	for i, b := range s.batchers {
		bs := b.obs
		flushes := bs.flushes.Value()
		coalesced := bs.coalesced.Value()
		ss := ShardStats{
			Shard:             i,
			QueueDepth:        bs.queueDepth.Value(),
			Rejected:          bs.rejected.Value(),
			DeadlineExpired:   bs.deadlineExpired.Value(),
			BatchesFlushed:    flushes,
			RequestsCoalesced: coalesced,
			Vectors:           vecs[i],
			Draining:          b.Draining(),
			ModeledBusyNS:     s.accs[i].Totals().LatencyNS,
		}
		perShard[i] = ss
		agg.QueueDepth += ss.QueueDepth
		agg.QueueMax += bs.queueMax.Value()
		agg.Rejected += ss.Rejected
		agg.DeadlineExpired += ss.DeadlineExpired
		agg.BatchesFlushed += flushes
		agg.RequestsCoalesced += coalesced
		agg.Draining = agg.Draining || ss.Draining
	}
	if agg.BatchesFlushed > 0 {
		agg.MeanBatchOccupancy = float64(agg.RequestsCoalesced) / float64(agg.BatchesFlushed)
	}
	for _, acc := range s.accs {
		hits, falls := acc.FusionCounters()
		agg.FusionHits += hits
		agg.FusionFallbacks += falls
	}
	agg.Panics = s.obs.panics.Value()
	agg.WireFlushes = s.obs.wire.flushes.Value()
	if n := s.obs.wire.framesPerFlush.Count(); n > 0 {
		agg.WireFramesPerFlush = s.obs.wire.framesPerFlush.Sum() / float64(n)
	}
	agg.Vectors = s.store.size()
	agg.Degraded = s.batchers[0].Degraded()
	agg.Shards = len(s.batchers)
	if len(s.batchers) > 1 {
		agg.PerShard = perShard
	}
	return StatsPayload{
		Design:       s.acc.Design(),
		ReservedRows: s.acc.ReservedRows(),
		Totals:       statsJSON(s.Totals()),
		Server:       agg,
	}
}

// handlerFunc is the internal handler shape: return a status and an
// error; wrap renders both.
type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// committedWriter wraps the ResponseWriter to record whether the handler
// has already committed a response (status line sent or body bytes
// written), so the error paths in wrap never append a second status/body
// to a partially written reply.
type committedWriter struct {
	http.ResponseWriter
	committed bool
}

// WriteHeader marks the response committed before sending the status.
func (w *committedWriter) WriteHeader(code int) {
	w.committed = true
	w.ResponseWriter.WriteHeader(code)
}

// Write marks the response committed before writing body bytes.
func (w *committedWriter) Write(p []byte) (int, error) {
	w.committed = true
	return w.ResponseWriter.Write(p)
}

// wrap is the route middleware: request/error/latency series, span
// emission, body limiting, and panic isolation (a panicking handler
// answers 500 and increments server.panics instead of killing the
// connection's goroutine silently — unless it already committed a
// response, in which case there is nothing coherent left to write).
func (s *Server) wrap(route string, h handlerFunc) http.HandlerFunc {
	rs := s.obs.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		rs.requests.Inc()
		start := time.Now()
		spanStart := s.obs.ctx.SpanStart()
		cw := &committedWriter{ResponseWriter: w}
		var flushID int64
		r = r.WithContext(context.WithValue(r.Context(), flushIDKey{}, &flushID))
		var handlerErr error
		defer func() {
			if rec := recover(); rec != nil {
				s.obs.panics.Inc()
				err := fmt.Errorf("server: internal error: %v", rec)
				debug.PrintStack()
				s.writeError(cw, rs, http.StatusInternalServerError, err)
				handlerErr = err
			}
			rs.latency.Observe(float64(time.Since(start).Nanoseconds()))
			s.obs.requestSpan(spanStart, route, r.Method, flushID, handlerErr)
		}()
		r.Body = http.MaxBytesReader(cw, r.Body, s.cfg.MaxBodyBytes)
		handlerErr = h(cw, r)
		if handlerErr != nil {
			s.writeError(cw, rs, statusFor(handlerErr), handlerErr)
		}
	}
}

// flushIDKey carries the flush sequence number a request rode from the
// handler body back to the span emitter, via a pointer stashed in the
// request context by wrap.
type flushIDKey struct{}

// statusFor maps serving-layer errors onto HTTP statuses. 400 is
// reserved for tagged request-validation failures (errBadRequest); an
// unrecognized error is a server fault and reports 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, ErrUnknownVector):
		return http.StatusNotFound
	case errors.Is(err, errBadRequest), errors.Is(err, elp2im.ErrBadExpr),
		errors.Is(err, elp2im.ErrBadArith):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeError records the error and renders it as the JSON error body for
// the given status, attaching Retry-After on 503s so well-behaved clients
// back off. If the handler already committed a response, only the error
// counter moves — a late status line or JSON body would corrupt whatever
// the client is reading.
func (s *Server) writeError(w *committedWriter, rs *routeSeries, status int, err error) {
	rs.errors.Inc()
	if w.committed {
		return
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// writeJSON renders a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// requestContext applies the per-request deadline: ?timeout_ms when the
// client passed one, the configured default otherwise.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms <= 0 {
			return nil, nil, badRequestf("server: bad timeout_ms %q", raw)
		}
		ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		return ctx, cancel, nil
	}
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		return ctx, cancel, nil
	}
	return ctx, func() {}, nil
}

// decodeBody parses the JSON request body into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("server: bad request body: %v", err)
	}
	return nil
}

// handlePutVector stores a vector under the URL name. A plain bit
// vector is all-zero of the given length when Data is empty, decoded
// contents otherwise; a nonzero ElemWidth instead stores a vertical
// (bit-sliced) vector transposed from the Elems payload.
func (s *Server) handlePutVector(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if name == "" {
		return badRequestf("server: vector name must not be empty")
	}
	var body VectorPayload
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	if body.ElemWidth != 0 || body.Elems != "" {
		if body.Bits != 0 || body.Data != "" {
			return badRequestf("server: a vertical put takes elem_width and elems only")
		}
		elems, err := DecodeElems(body.Elems)
		if err != nil {
			return err
		}
		v, err := buildVertical(elems, body.ElemWidth)
		if err != nil {
			return err
		}
		s.store.setVert(name, v)
		return writeJSON(w, VectorInfo{
			Name: name, Bits: len(elems) * body.ElemWidth,
			Elems: len(elems), ElemWidth: body.ElemWidth,
		})
	}
	var vec *elp2im.BitVector
	if body.Data == "" {
		if body.Bits <= 0 {
			return badRequestf("server: bits must be positive, got %d", body.Bits)
		}
		vec = elp2im.NewBitVector(body.Bits)
	} else {
		v, err := DecodeBits(body.Data, body.Bits)
		if err != nil {
			return err
		}
		vec = v
	}
	s.store.set(name, vec)
	return writeJSON(w, VectorInfo{Name: name, Bits: vec.Len()})
}

// handleGetVector returns a vector's contents. Plain vectors answer with
// the bit payload, vertical ones with their element values and width.
// Either way the entry is pinned only for a words-snapshot (or the
// transpose back to elements); the base64 encode and the JSON write
// happen outside the lock (see wordBufPool).
func (s *Server) handleGetVector(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	e := s.store.lookup(name)
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownVector, name)
	}
	e.mu.RLock()
	if v := e.vert; v != nil {
		elems := v.Elements()
		width := v.Width()
		e.mu.RUnlock()
		return writeJSON(w, VectorPayload{
			Name: name, Bits: len(elems) * width,
			ElemWidth: width, Elems: EncodeElems(elems),
		})
	}
	bits := e.vec.Len()
	bp := getWordBuf()
	*bp = append(*bp, e.vec.Words()...)
	e.mu.RUnlock()
	data := encodeWordBits(*bp, bits)
	pop := popcountWords(*bp)
	putWordBuf(bp)
	return writeJSON(w, VectorPayload{Name: name, Bits: bits, Data: data, Popcount: &pop})
}

// handleDeleteVector removes a vector.
func (s *Server) handleDeleteVector(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if !s.store.remove(name) {
		return fmt.Errorf("%w: %q", ErrUnknownVector, name)
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// handleListVectors lists every stored vector.
func (s *Server) handleListVectors(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, ListResponse{Vectors: s.store.list()})
}

// runBatched admits req to its destination's home-shard micro-batcher and
// reports the flush id it rode back to wrap's span emitter. Do owns req
// from the moment it is called (it recycles it into the request pool), so
// nothing here may touch req afterwards.
func (s *Server) runBatched(w http.ResponseWriter, r *http.Request, req *pimRequest) error {
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		putPimRequest(req)
		return err
	}
	defer cancel()
	st, id, err := s.batcherFor(req.dst).Do(ctx, req)
	if p, ok := r.Context().Value(flushIDKey{}).(*int64); ok {
		*p = id
	}
	if err != nil {
		return err
	}
	return writeJSON(w, OpResponse{Stats: statsJSON(st)})
}

// handleOp executes dst = op(x, y) through the micro-batcher.
func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) error {
	var body OpRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	op, err := parseOp(body.Op)
	if err != nil {
		return err
	}
	if body.Dst == "" || body.X == "" {
		return badRequestf("server: op needs dst and x")
	}
	if !op.Unary() && body.Y == "" {
		return badRequestf("server: %s needs operand y", body.Op)
	}
	pr := getPimRequest()
	pr.kind, pr.op, pr.dst, pr.x, pr.y = kindOp, op, body.Dst, body.X, body.Y
	return s.runBatched(w, r, pr)
}

// handleReduce executes dst = srcs[0] op srcs[1] op ... through the
// micro-batcher.
func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) error {
	var body ReduceRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	op, err := parseOp(body.Op)
	if err != nil {
		return err
	}
	if body.Dst == "" {
		return badRequestf("server: reduce needs dst")
	}
	if len(body.Srcs) < 2 {
		return badRequestf("server: reduce needs at least two srcs")
	}
	pr := getPimRequest()
	pr.kind, pr.op, pr.dst = kindReduce, op, body.Dst
	pr.srcs = append(pr.srcs[:0], body.Srcs...)
	return s.runBatched(w, r, pr)
}

// handleEval evaluates a boolean expression over stored vectors and
// stores the result under dst. Eval has no batched form on the facade,
// so it runs synchronously — gated on the drain state and coordinated
// with in-flight flushes through the same entry locks. Eval only reads
// its operands (the result lands in a fresh vector, stored afterwards),
// so the sources are read-locked: concurrent GETs and other Evals sharing
// an operand proceed, only writers are excluded.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) error {
	var body EvalRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	if body.Expr == "" || body.Dst == "" {
		return badRequestf("server: eval needs expr and dst")
	}
	st, bits, err := s.evalCore(body.Expr, body.Dst)
	if err != nil {
		return err
	}
	return writeJSON(w, OpResponse{Stats: statsJSON(st), Bits: bits})
}

// evalCore is the protocol-independent eval body shared by the HTTP and
// wire paths: compile the expression once (through the eval cache), gate
// on the destination shard's drain state, read-lock the operands, execute
// the compiled program on the shard's accelerator, and store the result under
// dst. Compilation failures (elp2im.ErrBadExpr) are client errors; both
// transports report them as 400.
func (s *Server) evalCore(exprSrc, dst string) (elp2im.Stats, int, error) {
	ce, err := s.cachedExpr(exprSrc)
	if err != nil {
		return elp2im.Stats{}, 0, err
	}
	// Eval routes like every write: the destination's home shard admits it
	// and executes it on that shard's accelerator.
	batcher := s.batcherFor(dst)
	if err := batcher.acquireSync(); err != nil {
		return elp2im.Stats{}, 0, err
	}
	defer batcher.releaseSync()

	names := ce.Vars()
	entries := make(map[string]*entry, len(names))
	vars := make(map[string]*elp2im.BitVector, len(names))
	for _, name := range names {
		e := s.store.lookup(name)
		if e == nil {
			return elp2im.Stats{}, 0, fmt.Errorf("%w: %q", ErrUnknownVector, name)
		}
		entries[name] = e
	}
	unlock := rlockEntries(entries)
	var bits int
	for name, e := range entries {
		if e.vert != nil {
			unlock()
			return elp2im.Stats{}, 0, badRequestf("server: %q is a vertical vector; eval operands are bit vectors", name)
		}
		vars[name] = e.vec
		if bits == 0 {
			bits = e.vec.Len()
		} else if e.vec.Len() != bits {
			unlock()
			return elp2im.Stats{}, 0, badRequestf("server: expression vectors differ in length (%q has %d bits, want %d)",
				name, e.vec.Len(), bits)
		}
	}
	out, st, err := batcher.acc.EvalExpr(ce, vars)
	unlock()
	if err != nil {
		return elp2im.Stats{}, 0, err
	}
	s.store.set(dst, out)
	return st, out.Len(), nil
}

// handleArith executes a vertical arithmetic operation over stored
// vertical vectors and stores the result under dst.
func (s *Server) handleArith(w http.ResponseWriter, r *http.Request) error {
	var body ArithRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	op, err := elp2im.ParseArithOp(body.Op)
	if err != nil {
		return err
	}
	st, out, err := s.arithCore(op, body.Dst, body.X, body.Y, body.Mask)
	if err != nil {
		return err
	}
	return writeJSON(w, OpResponse{Stats: statsJSON(st), Elems: out.Len(), ElemWidth: out.Width()})
}

// arithCore is the protocol-independent arith body shared by the HTTP
// and wire paths, mirroring evalCore's shape: gate on the destination
// shard's drain state, read-lock the operands, fetch the compiled
// µProgram for (op, x's width) through the shared program cache, execute
// it on the destination's home-shard accelerator, and store the result
// vertical under dst. Operand-shape mistakes surface as
// elp2im.ErrBadArith, which both transports report as 400.
func (s *Server) arithCore(op elp2im.ArithOp, dst, x, y, mask string) (elp2im.Stats, *elp2im.Vertical, error) {
	if dst == "" || x == "" {
		return elp2im.Stats{}, nil, badRequestf("server: arith needs dst and x")
	}
	batcher := s.batcherFor(dst)
	if err := batcher.acquireSync(); err != nil {
		return elp2im.Stats{}, nil, err
	}
	defer batcher.releaseSync()

	entries := make(map[string]*entry, 3)
	for _, name := range []string{x, y, mask} {
		if name == "" {
			continue
		}
		e := s.store.lookup(name)
		if e == nil {
			return elp2im.Stats{}, nil, fmt.Errorf("%w: %q", ErrUnknownVector, name)
		}
		entries[name] = e
	}
	unlock := rlockEntries(entries)
	vertOf := func(name string) (*elp2im.Vertical, error) {
		if v := entries[name].vert; v != nil {
			return v, nil
		}
		return nil, badRequestf("server: %q is not a vertical vector (arith operands are stored with elem_width)", name)
	}
	xv, err := vertOf(x)
	if err != nil {
		unlock()
		return elp2im.Stats{}, nil, err
	}
	var yv *elp2im.Vertical
	if y != "" {
		if yv, err = vertOf(y); err != nil {
			unlock()
			return elp2im.Stats{}, nil, err
		}
	}
	var mv *elp2im.BitVector
	if mask != "" {
		me := entries[mask]
		if me.vert != nil {
			unlock()
			return elp2im.Stats{}, nil, badRequestf("server: mask %q must be a plain bit vector", mask)
		}
		mv = me.vec
	}
	ca, err := s.cachedArith(op, xv.Width())
	if err != nil {
		unlock()
		return elp2im.Stats{}, nil, err
	}
	out, st, err := batcher.acc.ArithProg(ca, xv, yv, mv)
	unlock()
	if err != nil {
		return elp2im.Stats{}, nil, err
	}
	s.store.setVert(dst, out)
	return st, out, nil
}

// handleStats serves the stable stats payload.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, s.Stats())
}

// healthPayload is the /healthz body.
type healthPayload struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
}

// handleHealth reports liveness and the drain state (load balancers use
// "draining" to take the instance out of rotation). Any draining shard
// marks the whole instance draining — drain is an instance-wide event.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) error {
	st := "ok"
	for _, b := range s.batchers {
		if b.Draining() {
			st = "draining"
			break
		}
	}
	return writeJSON(w, healthPayload{Status: st})
}

// sortedRouteNames returns the route metric keys, sorted (documentation
// and test helper).
func sortedRouteNames() []string {
	names := append([]string(nil), routeNames...)
	sort.Strings(names)
	return names
}
