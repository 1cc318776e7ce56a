package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	elp2im "repro"
	"repro/internal/wire"
)

// query_wire_1m: a closed loop of two callers sharing one elpwire
// connection to a 4-shard server, issuing bitmap-index predicates over a
// 1 Mi-bit universe (8 indices per namespace, Zipfian index popularity,
// the count/positions/bits mode mix of elpload -query). The path skips the
// batcher: the time goes into the eval-cache plan lookup, fused k-input
// kernels over 16 Ki words, Shard.EvalExpr scatter-gather and result
// encoding.
const (
	queryBits       = 1 << 20
	queryWords      = queryBits / 64
	queryIndices    = 8
	queryNamespaces = 2
	queryShards     = 4
	queryCallers    = 2
	queryPageLimit  = 1024
)

// queryTemplates are the predicate shapes, drawn uniformly per slot as
// elpload -query does, paired with their host oracle on words.
var queryTemplates = []struct {
	render func(a, b, c string) string
	host   func(a, b, c uint64) uint64
}{
	{func(a, b, _ string) string { return a + " & " + b }, func(a, b, _ uint64) uint64 { return a & b }},
	{func(a, b, c string) string { return "(" + a + " & " + b + ") | ~" + c }, func(a, b, c uint64) uint64 { return (a & b) | ^c }},
	{func(a, b, c string) string { return a + " ^ " + b + " ^ " + c }, func(a, b, c uint64) uint64 { return a ^ b ^ c }},
	{func(a, b, c string) string { return "(" + a + " | " + b + ") & ~" + c }, func(a, b, c uint64) uint64 { return (a | b) &^ c }},
}

// queryModes is the pool's mode mix in slots: count 2/5, positions 2/5,
// bits 1/5 (shuffled).
var queryModes = []struct {
	mode uint8
	n    int
}{{wire.QueryCount, 400}, {wire.QueryPositions, 400}, {wire.QueryBits, 200}}

type queryReq struct {
	nsi       int // namespace index
	ns, pred  string
	vars      []string // distinct index names the predicate reads
	mode      uint8
	cursor    uint64
	count     uint64
	bitsHash  uint64   // bits mode: wordsHash of the match vector
	positions []uint64 // positions mode
	next      uint64
}

type queryWorkload struct {
	indices [queryNamespaces][queryIndices][]uint64
	pool    []queryReq
}

func indexName(i int) string { return fmt.Sprintf("i%d", i) }
func nsName(i int) string    { return fmt.Sprintf("q%d", i) }

func (w *queryWorkload) generate(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for ns := range w.indices {
		for i := range w.indices[ns] {
			w.indices[ns][i] = randomWords(rng, queryWords)
		}
	}
	var modes []uint8
	for _, m := range queryModes {
		for range m.n {
			modes = append(modes, m.mode)
		}
	}
	rng.Shuffle(len(modes), func(i, j int) { modes[i], modes[j] = modes[j], modes[i] })
	zipf := rand.NewZipf(rng, 1.3, 1, queryIndices-1)
	w.pool = make([]queryReq, len(modes))
	match := make([]uint64, queryWords)
	for s := range w.pool {
		ns := rng.Intn(queryNamespaces)
		a, b, c := int(zipf.Uint64()), int(zipf.Uint64()), int(zipf.Uint64())
		tmpl := rng.Intn(len(queryTemplates))
		t := queryTemplates[tmpl]
		r := queryReq{nsi: ns, ns: nsName(ns), pred: t.render(indexName(a), indexName(b), indexName(c)), mode: modes[s]}
		used := []int{a, b}
		if tmpl != 0 {
			used = append(used, c)
		}
		seen := map[int]bool{}
		for _, x := range used {
			if !seen[x] {
				seen[x] = true
				r.vars = append(r.vars, indexName(x))
			}
		}
		ia, ib, ic := w.indices[ns][a], w.indices[ns][b], w.indices[ns][c]
		for i := range match {
			match[i] = t.host(ia[i], ib[i], ic[i])
		}
		r.count = popcount(match)
		switch r.mode {
		case wire.QueryBits:
			r.bitsHash = wordsHash(match)
		case wire.QueryPositions:
			r.cursor = uint64(rng.Intn(queryBits))
			r.positions, r.next = page(match, r.cursor, queryPageLimit)
		}
		w.pool[s] = r
	}
	return nil
}

// page is the host oracle of a positions page: up to limit set-bit
// positions at or after cursor, and the cursor resuming after them (zero
// when no match follows the page).
func page(match []uint64, cursor uint64, limit int) (positions []uint64, next uint64) {
	for i := cursor; i < uint64(len(match))*64; i++ {
		if match[i/64]>>(i%64)&1 == 0 {
			continue
		}
		if len(positions) == limit {
			return positions, positions[limit-1] + 1
		}
		positions = append(positions, i)
	}
	return positions, 0
}

// wordsHash folds words into one value. Each step is a bijection of the
// running value and of the word, so two vectors that differ in one word
// always hash apart.
func wordsHash(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		h = (h ^ w) * 1099511628211
	}
	return h
}

// build appends slot's request frame (for the codec probe).
func (w *queryWorkload) build(b []byte, slot int, id uint64) []byte {
	r := &w.pool[slot]
	return wire.AppendQueryRequest(b, id, 0, r.ns, r.pred, r.mode, r.cursor, r.limit())
}

func (r *queryReq) limit() uint32 {
	if r.mode == wire.QueryPositions {
		return queryPageLimit
	}
	return 0
}

// query sends slot's request through the program's wire client.
func (w *queryWorkload) query(cl *wire.Client, slot int) (wire.QueryResult, error) {
	r := &w.pool[slot]
	return cl.Query(0, r.ns, r.pred, r.mode, r.cursor, r.limit())
}

// check verifies a decoded query result against the host oracle and
// returns the modeled cost it reports.
func (w *queryWorkload) check(slot int, qr wire.QueryResult) (cost, error) {
	r := &w.pool[slot]
	bad := func(what string) (cost, error) {
		return cost{}, fmt.Errorf("%w: query %q on %s: %s", errMismatch, r.pred, r.ns, what)
	}
	if qr.Bits != queryBits || qr.Count != r.count {
		return bad("universe or count differs")
	}
	switch r.mode {
	case wire.QueryBits:
		if len(qr.Words) != queryWords || wordsHash(qr.Words) != r.bitsHash {
			return bad("match bits differ")
		}
	case wire.QueryPositions:
		if qr.NextCursor != r.next || !slices.Equal(qr.Positions, r.positions) {
			return bad("positions page differs")
		}
	}
	return costOf(qr.Stats), nil
}

type queryInst struct {
	*wireEnv
	w    *queryWorkload
	cl   *wire.Client // setup and probe connection
	book *costBook
}

func (w *queryWorkload) start(h hooks) (instance, error) {
	e, err := startWireEnv(queryShards, h)
	if err != nil {
		return nil, err
	}
	in := &queryInst{wireEnv: e, w: w, book: newCostBook(len(w.pool))}
	if err := in.load(); err != nil {
		in.close()
		return nil, err
	}
	e.setupDone()
	return in, nil
}

// load stores the indices and warms up with one whole pass from
// queryCallers callers, which fills the eval cache with every distinct
// predicate and records each slot's cost.
func (in *queryInst) load() error {
	nc, err := in.dial()
	if err != nil {
		return err
	}
	in.cl = wire.NewClient(nc)
	for ns := range queryNamespaces {
		for i := range queryIndices {
			if err := in.cl.Put(nsName(ns)+"/"+indexName(i), queryBits, in.w.indices[ns][i]); err != nil {
				return fmt.Errorf("%w: setup PUT: %v", errUnexpected, err)
			}
		}
	}
	errs := make([]error, queryCallers)
	var wg sync.WaitGroup
	for c := range queryCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := c; s < len(in.w.pool) && errs[c] == nil; s += queryCallers {
				errs[c] = in.warm(s)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (in *queryInst) warm(slot int) error {
	qr, err := in.w.query(in.cl, slot)
	if err != nil {
		return fmt.Errorf("%w: warm-up: %v", errUnexpected, err)
	}
	c, err := in.w.check(slot, qr)
	if err != nil {
		return err
	}
	return in.book.record(slot, c)
}

// do runs slot's request on cl and verifies the response. recv is when the
// decoded response was back, before verification.
func (in *queryInst) do(cl *wire.Client, slot int) (recv time.Time, failed bool, err error) {
	qr, err := in.w.query(cl, slot)
	recv = time.Now()
	if err != nil {
		failed, err = clientErr(err)
		return recv, failed, err
	}
	c, err := in.w.check(slot, qr)
	if err == nil {
		err = in.book.check(slot, c)
	}
	return recv, false, err
}

func (in *queryInst) window(d time.Duration, traced bool) (*window, error) {
	nc, err := in.dial()
	if err != nil {
		return nil, err
	}
	cl := wire.NewClient(nc)
	defer cl.Close()
	before := in.counters()
	w, err := closedLoop(queryCallers, len(in.w.pool), d, traced, func(_, slot int) (time.Time, bool, error) {
		return in.do(cl, slot)
	})
	if err != nil {
		return nil, err
	}
	flushes, frames := cl.WriteStats()
	w.flushes, w.frames = int64(flushes), int64(frames)
	return finishWindow(w, in.counters().sub(before), in.book)
}

// sequential runs slot's request alone on cl, where shedding is unexpected.
func (in *queryInst) sequential(cl *wire.Client, slot int) error {
	_, failed, err := in.do(cl, slot)
	if err == nil && failed {
		err = fmt.Errorf("%w: request shed in a sequential probe", errUnexpected)
	}
	return err
}

func (in *queryInst) probe() (layerTimes, error) {
	var lt layerTimes
	n := len(in.w.pool)
	rtt, err := timeSlots(n, func(s int) error { return in.sequential(in.cl, s) })
	if err != nil {
		return lt, err
	}
	pc, err := in.dialPipe()
	if err != nil {
		return lt, err
	}
	pcl := wire.NewClient(pc)
	defer pcl.Close()
	hdl, err := timeSlots(n, func(s int) error { return in.sequential(pcl, s) })
	if err != nil {
		return lt, err
	}
	var vars [queryNamespaces]map[string]*elp2im.BitVector
	for ns := range vars {
		vars[ns] = map[string]*elp2im.BitVector{}
		for i := range queryIndices {
			vars[ns][indexName(i)] = bitVector(queryBits, in.w.indices[ns][i])
		}
	}
	compiled := map[string]*elp2im.CompiledExpr{}
	var preds []string
	for _, r := range in.w.pool {
		if compiled[r.pred] == nil {
			ce, err := elp2im.CompileExpr(r.pred)
			if err != nil {
				return lt, fmt.Errorf("%w: compile %q: %v", errUnexpected, r.pred, err)
			}
			compiled[r.pred] = ce
			preds = append(preds, r.pred)
		}
	}
	fac, err := timeSlots(n, func(s int) error {
		r := &in.w.pool[s]
		out, _, err := in.sh.EvalExpr(compiled[r.pred], vars[r.nsi])
		if err == nil && uint64(out.Popcount()) != r.count {
			err = fmt.Errorf("%w: facade %q differs from the host oracle", errMismatch, r.pred)
		}
		return err
	})
	if err != nil {
		return lt, err
	}
	lt.rtt, lt.handler, lt.eval = meanWhere(rtt, all), meanWhere(hdl, all), meanWhere(fac, all)
	if lt.compile, err = repeatNS(func() error {
		for _, p := range preds {
			if _, err := elp2im.CompileExpr(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return lt, err
	}
	lt.compile /= float64(len(preds))
	if lt.codec, err = codecNS(n, in.w.build); err != nil {
		return lt, err
	}
	var bytes float64
	for _, r := range in.w.pool {
		bytes += float64((len(r.vars) + 1) * queryWords * 8)
	}
	lt.kernelBytes = bytes / float64(n)
	return lt, nil
}

func (in *queryInst) close() {
	if in.cl != nil {
		_ = in.cl.Close()
	}
	in.wireEnv.close()
}
