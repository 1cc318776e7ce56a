package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	elp2im "repro"
)

// Serving-layer sentinel errors, mapped onto HTTP statuses by the
// handlers (503 for admission/drain, 404 for unknown vectors).
var (
	// ErrSaturated is returned when the admission queue is full: the
	// pipeline cannot keep up with the offered load and the client should
	// back off (503 + Retry-After).
	ErrSaturated = errors.New("server: request queue is full")
	// ErrDraining is returned once graceful shutdown has begun and no new
	// work is admitted.
	ErrDraining = errors.New("server: draining, not accepting new requests")
	// ErrUnknownVector wraps the name of an operand that is not in the
	// store.
	ErrUnknownVector = errors.New("server: unknown vector")
	// errBadRequest tags request-validation failures so statusFor can
	// reserve 400 Bad Request for them; any error that reaches wrap
	// untagged (and is none of the named sentinels) is a server fault and
	// answers 500.
	errBadRequest = errors.New("server: bad request")
)

// badRequest is a client-fault error: its message stands alone, but it
// unwraps to errBadRequest so statusFor recognizes it through any further
// wrapping.
type badRequest struct{ msg string }

// Error returns the validation failure's message.
func (e *badRequest) Error() string { return e.msg }

// Unwrap exposes the errBadRequest tag to errors.Is.
func (e *badRequest) Unwrap() error { return errBadRequest }

// badRequestf builds a client-fault error from a format string.
func badRequestf(format string, args ...any) error {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

// reqKind discriminates the two batchable request shapes.
type reqKind int

const (
	kindOp reqKind = iota
	kindReduce
)

// pimRequest is one admitted operation waiting for (or riding) a
// micro-batch flush. Requests cycle through pimReqPool so the wire path's
// steady-state op loop allocates nothing; done is a reusable buffered(1)
// channel signaled exactly once per use instead of a closed-and-discarded
// one.
type pimRequest struct {
	kind reqKind
	op   elp2im.Op
	dst  string
	x, y string   // kindOp operands
	srcs []string // kindReduce operands

	ctx  context.Context
	done chan struct{}

	// Results, written exactly once before done is signaled.
	stats   elp2im.Stats
	err     error
	flushID int64
}

// pimReqPool recycles pimRequests across the JSON and wire paths. A
// request abandoned on the deadline path is deliberately NOT recycled
// (the flusher still holds it and will settle it later); only requests
// whose outcome was received go back.
var pimReqPool = sync.Pool{New: func() any {
	return &pimRequest{done: make(chan struct{}, 1)}
}}

// getPimRequest fetches a zeroed request from the pool.
func getPimRequest() *pimRequest { return pimReqPool.Get().(*pimRequest) }

// putPimRequest resets a settled request and recycles it.
func putPimRequest(r *pimRequest) {
	r.kind, r.op = 0, 0
	r.dst, r.x, r.y = "", "", ""
	r.srcs = r.srcs[:0]
	r.ctx = nil
	r.stats, r.err, r.flushID = elp2im.Stats{}, nil, 0
	pimReqPool.Put(r)
}

// resolve publishes the request's outcome and wakes its handler. The
// flusher must not touch r afterwards: the handler may already have
// recycled it.
func (r *pimRequest) resolve(st elp2im.Stats, err error) {
	r.stats, r.err = st, err
	r.done <- struct{}{}
}

// Batcher is the dynamic micro-batcher at the heart of elpd: concurrent
// requests that arrive within one coalescing window (or up to MaxBatch)
// are folded into a single Accelerator.Batch submission, so requests
// whose stripes land on distinct subarrays ride the pipeline's existing
// parallelism, and every request fans back out through its own Future.
//
// A single flusher goroutine alternates between coalescing and flushing;
// while a flush is executing, newly admitted requests accumulate into the
// next batch — the standard dynamic-batching feedback that grows batches
// exactly when the pipeline is busy. Admission is bounded (MaxQueue):
// beyond it, Do fails fast with ErrSaturated instead of queueing
// unboundedly. Request deadlines are honored both in the handler (the
// select in Do) and at flush time (expired requests are skipped, not
// executed). Drain stops admission, flushes everything already queued,
// and waits for in-flight synchronous work — zero admitted requests are
// dropped.
type Batcher struct {
	acc      *elp2im.Accelerator
	store    *Store
	window   time.Duration
	maxBatch int
	maxQueue int
	degraded bool
	obs      *batcherSeries

	mu       sync.Mutex
	queue    []*pimRequest
	draining bool
	syncWG   sync.WaitGroup // in-flight degraded/Eval work, Add under mu

	wake      chan struct{} // buffered(1): queue became non-empty / grew
	drainCh   chan struct{} // closed when draining starts
	drainOnce sync.Once
	loopDone  chan struct{} // closed when the flusher exits

	flushSeq int64        // flusher-goroutine-local sequence number
	scratch  flushScratch // flusher-goroutine-local working set
}

// flushScratch is the per-flush working set, reused across flushes:
// flush runs only on the batcher's flusher goroutine, so one scratch per
// batcher keeps the steady-state flush path from re-allocating its
// slices, resolution carriers, and lock-ordering scratch on every
// micro-batch. Only data that escapes by design — adopted store entries,
// futures — is freshly allocated.
type flushScratch struct {
	live, submitted []*pimRequest
	bound, subBound []*resolved
	futures         []*elp2im.Future
	entries         map[string]*entry
	lockNames       []string
	res             []*resolved // grow-only carrier pool
	resUsed         int
}

// reset clears the scratch for the next flush. Pointer-holding slices
// are zeroed before truncation so recycled carriers do not pin dead
// requests or futures across idle periods.
func (s *flushScratch) reset() {
	clear(s.live)
	clear(s.submitted)
	clear(s.bound)
	clear(s.subBound)
	clear(s.futures)
	s.live, s.submitted = s.live[:0], s.submitted[:0]
	s.bound, s.subBound = s.bound[:0], s.subBound[:0]
	s.futures = s.futures[:0]
	if s.entries == nil {
		s.entries = make(map[string]*entry)
	} else {
		clear(s.entries)
	}
	s.resUsed = 0
}

// nextResolved hands out a cleared resolution carrier from the scratch's
// grow-only pool.
func (s *flushScratch) nextResolved() *resolved {
	if s.resUsed == len(s.res) {
		s.res = append(s.res, &resolved{})
	}
	res := s.res[s.resUsed]
	s.resUsed++
	res.reset()
	return res
}

// newBatcher starts a batcher (and its flusher goroutine, unless
// degraded) over acc and store. A sharded server runs one per shard, each
// with its own accelerator, admission queue, coalescing window and metric
// series — one hot shard saturating its queue answers 503 without
// stalling the others.
func newBatcher(acc *elp2im.Accelerator, store *Store, window time.Duration, maxBatch, maxQueue int, degraded bool, obs *batcherSeries) *Batcher {
	b := &Batcher{
		acc:      acc,
		store:    store,
		window:   window,
		maxBatch: maxBatch,
		maxQueue: maxQueue,
		degraded: degraded,
		obs:      obs,
		wake:     make(chan struct{}, 1),
		drainCh:  make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	obs.queueMax.Set(int64(maxQueue))
	if degraded {
		obs.degraded.Set(1)
		close(b.loopDone)
		return b
	}
	go b.loop()
	return b
}

// Do admits one request, waits for its outcome or the context deadline,
// and returns the modeled cost. The error is ErrSaturated / ErrDraining
// when admission fails, the context error when the deadline expires
// first (the request itself is then skipped at flush time), or the
// operation's own error.
//
// Do takes ownership of r, which must come from getPimRequest: when the
// outcome arrives, r is recycled before Do returns, so the caller must
// not touch it afterwards. A request abandoned to an expired context
// stays un-recycled — the flusher still holds it.
func (b *Batcher) Do(ctx context.Context, r *pimRequest) (elp2im.Stats, int64, error) {
	if b.degraded {
		st, err := b.doSync(ctx, r)
		putPimRequest(r)
		return st, 0, err
	}
	r.ctx = ctx
	if r.done == nil {
		// Pool-sourced requests arrive with a reusable channel; literals
		// (tests, embedders) get one here.
		r.done = make(chan struct{}, 1)
	}
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		putPimRequest(r)
		return elp2im.Stats{}, 0, ErrDraining
	}
	if len(b.queue) >= b.maxQueue {
		b.mu.Unlock()
		putPimRequest(r)
		b.obs.rejected.Inc()
		return elp2im.Stats{}, 0, ErrSaturated
	}
	b.queue = append(b.queue, r)
	b.obs.queueDepth.Set(int64(len(b.queue)))
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}

	select {
	case <-r.done:
		st, id, err := r.stats, r.flushID, r.err
		putPimRequest(r)
		return st, id, err
	case <-ctx.Done():
		// The flusher skips the request once it notices the expired
		// context; the handler answers 504 now rather than blocking on a
		// Future that would only resolve at the next flush. r is leaked to
		// the garbage collector, not the pool: the flusher will still write
		// its late outcome into it.
		b.obs.deadlineExpired.Inc()
		return elp2im.Stats{}, 0, ctx.Err()
	}
}

// acquireSync admits one unit of synchronous (non-batched) work — Eval,
// or any op in degraded mode — against the drain gate.
func (b *Batcher) acquireSync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.draining {
		return ErrDraining
	}
	b.syncWG.Add(1)
	return nil
}

// releaseSync retires one unit of synchronous work.
func (b *Batcher) releaseSync() { b.syncWG.Done() }

// doSync executes one request synchronously through the facade — the
// degraded mode used when the pipeline is disabled.
func (b *Batcher) doSync(ctx context.Context, r *pimRequest) (elp2im.Stats, error) {
	if err := b.acquireSync(); err != nil {
		return elp2im.Stats{}, err
	}
	defer b.releaseSync()
	if err := ctx.Err(); err != nil {
		b.obs.deadlineExpired.Inc()
		return elp2im.Stats{}, err
	}
	res := &resolved{}
	res.reset()
	if err := b.resolveRequest(r, res); err != nil {
		return elp2im.Stats{}, err
	}
	unlock := lockEntries(res.entries)
	if err := res.bind(r); err != nil {
		unlock()
		return elp2im.Stats{}, err
	}
	var st elp2im.Stats
	var err error
	switch r.kind {
	case kindReduce:
		st, err = b.acc.Reduce(r.op, res.dst, res.srcs...)
	default:
		st, err = b.acc.Op(r.op, res.dst, res.x, res.y)
	}
	unlock()
	if err != nil {
		return elp2im.Stats{}, err
	}
	if res.newDst != nil {
		b.store.adopt(r.dst, res.newDst)
	}
	return st, nil
}

// Draining reports whether drain has begun.
func (b *Batcher) Draining() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// Degraded reports whether the batcher runs in synchronous fallback mode.
func (b *Batcher) Degraded() bool { return b.degraded }

// Drain stops admission (Do returns ErrDraining from now on), flushes
// every request already queued, and blocks until the flusher has exited
// and all in-flight synchronous work has retired. It is idempotent.
func (b *Batcher) Drain() {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
	b.obs.draining.Set(1)
	b.drainOnce.Do(func() { close(b.drainCh) })
	<-b.loopDone
	b.syncWG.Wait()
}

// loop is the flusher: wait for work, coalesce, flush, repeat; on drain,
// keep flushing until the queue is empty, then exit.
func (b *Batcher) loop() {
	defer close(b.loopDone)
	for {
		if !b.waitForWork() {
			return
		}
		b.coalesce()
		if reqs := b.take(); len(reqs) > 0 {
			b.flush(reqs)
		}
	}
}

// waitForWork blocks until the queue is non-empty (true) or the batcher
// is draining with an empty queue (false).
func (b *Batcher) waitForWork() bool {
	for {
		b.mu.Lock()
		n, draining := len(b.queue), b.draining
		b.mu.Unlock()
		if n > 0 {
			return true
		}
		if draining {
			return false
		}
		select {
		case <-b.wake:
		case <-b.drainCh:
		}
	}
}

// coalesce holds the open batch for the coalescing window, returning
// early when the batch fills (maxBatch) or drain begins. A zero window
// is pure pass-through: whatever is queued right now flushes immediately.
func (b *Batcher) coalesce() {
	if b.window <= 0 {
		return
	}
	timer := time.NewTimer(b.window)
	defer timer.Stop()
	for {
		b.mu.Lock()
		full, draining := len(b.queue) >= b.maxBatch, b.draining
		b.mu.Unlock()
		if full || draining {
			return
		}
		select {
		case <-timer.C:
			return
		case <-b.wake:
		case <-b.drainCh:
		}
	}
}

// take removes up to maxBatch requests from the head of the queue.
func (b *Batcher) take() []*pimRequest {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.queue)
	if n > b.maxBatch {
		n = b.maxBatch
	}
	reqs := make([]*pimRequest, n)
	copy(reqs, b.queue[:n])
	rest := copy(b.queue, b.queue[n:])
	for i := rest; i < len(b.queue); i++ {
		b.queue[i] = nil
	}
	b.queue = b.queue[:rest]
	b.obs.queueDepth.Set(int64(rest))
	return reqs
}

// resolved is one request's operand names bound to store entries, then —
// once those entries are locked — to the vectors themselves (see bind).
type resolved struct {
	// entries are the involved store entries, keyed by name; they must be
	// locked (lockEntries) before bind reads any vector out of them.
	entries map[string]*entry
	// dstEntry is the destination's store entry when the name existed at
	// resolve time; nil means the destination is created detached by bind
	// and published (adopt) only if the operation succeeds.
	dstEntry *entry
	// newDst is the detached destination entry bind created, nil when the
	// destination already existed.
	newDst *entry

	dst, x, y *elp2im.BitVector
	srcs      []*elp2im.BitVector
}

// reset clears a recycled carrier for reuse (see flushScratch).
func (res *resolved) reset() {
	if res.entries == nil {
		res.entries = make(map[string]*entry, 4)
	} else {
		clear(res.entries)
	}
	res.dstEntry = nil
	res.newDst = nil
	res.dst, res.x, res.y = nil, nil, nil
	clear(res.srcs)
	res.srcs = res.srcs[:0]
}

// resolveRequest binds a request's vector names to store entries. It
// never touches vector contents — per the store's locking invariant, vec
// pointers are only read by bind, after lockEntries pinned every involved
// entry. A destination that does not exist yet is deliberately NOT
// created here: bind materializes it detached, and it becomes visible in
// the store only when the operation succeeds, so a failed request never
// leaves a spurious all-zero vector behind. The carrier res comes cleared
// from the caller (flush recycles them through its scratch).
func (b *Batcher) resolveRequest(r *pimRequest, res *resolved) error {
	need := func(name string) error {
		e := b.store.lookup(name)
		if e == nil {
			return fmt.Errorf("%w: %q", ErrUnknownVector, name)
		}
		res.entries[name] = e
		return nil
	}
	switch r.kind {
	case kindReduce:
		for _, name := range r.srcs {
			if err := need(name); err != nil {
				return err
			}
		}
	default:
		if err := need(r.x); err != nil {
			return err
		}
		if !r.op.Unary() {
			if err := need(r.y); err != nil {
				return err
			}
		}
	}
	if e := b.store.lookup(r.dst); e != nil {
		res.entries[r.dst] = e
		res.dstEntry = e
	}
	return nil
}

// bind reads the operand vectors out of the locked entries and
// materializes the destination: the stored vector when the name exists, a
// detached one otherwise. It also pre-validates operand lengths so a
// mismatch settles as a tagged 400 instead of surfacing as an opaque
// facade error. The caller must hold the locks from
// lockEntries(res.entries).
func (res *resolved) bind(r *pimRequest) error {
	switch r.kind {
	case kindReduce:
		if cap(res.srcs) < len(r.srcs) {
			res.srcs = make([]*elp2im.BitVector, len(r.srcs))
		} else {
			res.srcs = res.srcs[:len(r.srcs)]
		}
		for i, name := range r.srcs {
			v, err := res.vecOf(name)
			if err != nil {
				return err
			}
			res.srcs[i] = v
			if res.srcs[i].Len() != res.srcs[0].Len() {
				return badRequestf("server: reduce operand %q has %d bits, want %d",
					name, res.srcs[i].Len(), res.srcs[0].Len())
			}
		}
		return res.bindDst(r.dst, res.srcs[0].Len())
	default:
		v, err := res.vecOf(r.x)
		if err != nil {
			return err
		}
		res.x = v
		if !r.op.Unary() {
			if res.y, err = res.vecOf(r.y); err != nil {
				return err
			}
			if res.y.Len() != res.x.Len() {
				return badRequestf("server: operands %q (%d bits) and %q (%d bits) differ in length",
					r.x, res.x.Len(), r.y, res.y.Len())
			}
		}
		return res.bindDst(r.dst, res.x.Len())
	}
}

// vecOf returns the locked entry's plain bit vector, rejecting vertical
// entries — the op/reduce path computes over flat vectors only (vertical
// ones are /v1/arith operands).
func (res *resolved) vecOf(name string) (*elp2im.BitVector, error) {
	e := res.entries[name]
	if e.vert != nil {
		return nil, badRequestf("server: %q is a vertical vector; bitwise ops need bit vectors", name)
	}
	return e.vec, nil
}

// bindDst binds the destination vector: the existing entry's (length
// checked against the operands) or a fresh detached one.
func (res *resolved) bindDst(name string, bits int) error {
	if res.dstEntry != nil {
		if res.dstEntry.vert != nil {
			return badRequestf("server: destination %q is a vertical vector; bitwise ops need bit vectors", name)
		}
		res.dst = res.dstEntry.vec
		if res.dst.Len() != bits {
			return badRequestf("server: destination %q has %d bits, want %d", name, res.dst.Len(), bits)
		}
		return nil
	}
	res.newDst = &entry{name: name, vec: elp2im.NewBitVector(bits)}
	res.dst = res.newDst.vec
	return nil
}

// flush folds one coalesced request set into a single Accelerator.Batch
// submission, waits for it, and fans the per-request Futures back out.
// Expired, unresolvable and length-mismatched requests are settled
// without executing; the rest bind their vectors and execute with every
// involved entry's lock held, so a concurrent PUT can neither race the
// vector reads nor land invisibly between resolution and execution, and
// handler reads cannot observe a half-applied batch.
func (b *Batcher) flush(reqs []*pimRequest) {
	b.flushSeq++
	id := b.flushSeq
	start := b.obs.ctx.SpanStart()

	s := &b.scratch
	s.reset()
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			r.resolve(elp2im.Stats{}, err)
			continue
		}
		res := s.nextResolved()
		if err := b.resolveRequest(r, res); err != nil {
			r.resolve(elp2im.Stats{}, err)
			continue
		}
		s.live = append(s.live, r)
		s.bound = append(s.bound, res)
		for n, e := range res.entries {
			s.entries[n] = e
		}
	}
	if len(s.live) == 0 {
		b.obs.flushSpan(start, id, 0, nil)
		return
	}

	s.lockNames = lockEntriesOrdered(s.entries, s.lockNames)
	batch := b.acc.Batch()
	for i, r := range s.live {
		if err := s.bound[i].bind(r); err != nil {
			r.resolve(elp2im.Stats{}, err)
			continue
		}
		r.flushID = id
		switch r.kind {
		case kindReduce:
			s.futures = append(s.futures, batch.SubmitReduce(r.op, s.bound[i].dst, s.bound[i].srcs...))
		default:
			s.futures = append(s.futures, batch.Submit(r.op, s.bound[i].dst, s.bound[i].x, s.bound[i].y))
		}
		s.submitted = append(s.submitted, r)
		s.subBound = append(s.subBound, s.bound[i])
	}
	var firstErr error
	if len(s.submitted) > 0 {
		_, firstErr = batch.Wait()
	}
	batch.Close()
	unlockEntriesOrdered(s.entries, s.lockNames)
	if len(s.submitted) == 0 {
		b.obs.flushSpan(start, id, 0, nil)
		return
	}

	// Count the flush before any response goes out, so a caller that has
	// its answer never observes counters that lag it.
	b.obs.flushes.Inc()
	b.obs.coalesced.Add(int64(len(s.submitted)))
	b.obs.occupancy.Observe(float64(len(s.submitted)))
	for i, r := range s.submitted {
		st, err := s.futures[i].Wait()
		if err == nil && s.subBound[i].newDst != nil {
			b.store.adopt(r.dst, s.subBound[i].newDst)
		}
		r.resolve(st, err)
	}
	b.obs.flushSpan(start, id, len(s.submitted), firstErr)
}
