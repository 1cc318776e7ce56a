package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	elp2im "repro"
	"repro/internal/wire"
)

// ops_wire_open: an open loop at a fixed offered rate over one elpwire
// connection, 4-Kbit operands on one shard. The kernel touches 64 words,
// so nearly all the time is serving overhead (frame codec, batcher
// admission and window, store lookup, writev coalescing), and the arrival
// schedule builds the queues that batcher and flush changes act on.
const (
	opsBits     = 4096
	opsWords    = opsBits / 64
	opsOperands = 16
	// opsRate is the offered load in requests per second: high enough
	// that arrivals overlap inside the 200 µs batch window, low enough
	// that the backlog stays flat on a 2-CPU host.
	opsRate = 8000
)

// opsMix is the pool's composition (and=3, or=3, xor=2, reduce=2, plus
// verifying GETs) in slots; the order and operands are seeded.
var opsMix = []struct {
	kind string
	n    int
}{{"and", 300}, {"or", 300}, {"xor", 200}, {"reduce", 200}, {"get", 200}}

type opsReq struct {
	kind string // and, or, xor, reduce, get
	op   elp2im.Op
	code uint8
	dst  string
	srcs []int    // operand indices (op, reduce)
	want []uint64 // dst contents after the operation, or the GET's target
}

type opsWorkload struct {
	seed     int64
	operands [][]uint64
	pool     []opsReq
}

func (w *opsWorkload) generate(seed int64) error {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	w.operands = make([][]uint64, opsOperands)
	for i := range w.operands {
		w.operands[i] = randomWords(rng, opsWords)
	}
	var kinds []string
	for _, m := range opsMix {
		for range m.n {
			kinds = append(kinds, m.kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	w.pool = make([]opsReq, len(kinds))
	var writers []int
	for s, k := range kinds {
		r := opsReq{kind: k}
		switch k {
		case "get":
			w.pool[s] = r
			continue
		case "reduce":
			r.op, r.code = elp2im.OpAnd, wire.BitAnd
			if rng.Intn(2) == 1 {
				r.op, r.code = elp2im.OpOr, wire.BitOr
			}
			r.srcs = rng.Perm(opsOperands)[:3+rng.Intn(2)]
		default:
			r.op, r.code = map[string]elp2im.Op{"and": elp2im.OpAnd, "or": elp2im.OpOr, "xor": elp2im.OpXor}[k],
				map[string]uint8{"and": wire.BitAnd, "or": wire.BitOr, "xor": wire.BitXor}[k]
			r.srcs = rng.Perm(opsOperands)[:2]
		}
		r.dst = k + "." + r.op.String() + joinInts(r.srcs)
		r.want = foldWords(r.op, w.operands, r.srcs)
		w.pool[s] = r
		writers = append(writers, s)
	}
	for s := range w.pool {
		if w.pool[s].kind == "get" {
			t := w.pool[writers[rng.Intn(len(writers))]]
			w.pool[s].dst, w.pool[s].want = t.dst, t.want
		}
	}
	return nil
}

// build appends slot's request frame.
func (w *opsWorkload) build(b []byte, slot int, id uint64) []byte {
	r := &w.pool[slot]
	switch r.kind {
	case "get":
		return wire.AppendGetRequest(b, id, r.dst)
	case "reduce":
		srcs := make([]string, len(r.srcs))
		for i, x := range r.srcs {
			srcs[i] = operandName(x)
		}
		return wire.AppendReduceRequest(b, id, r.code, 0, r.dst, srcs)
	default:
		return wire.AppendOpRequest(b, id, r.code, 0, r.dst, operandName(r.srcs[0]), operandName(r.srcs[1]))
	}
}

// check verifies an OK response of slot against the host oracle and
// returns the modeled cost it reports.
func (w *opsWorkload) check(slot int, p []byte) (cost, error) {
	r := &w.pool[slot]
	if r.kind != "get" {
		return statsPayload(p)
	}
	if len(p) != 4+8+4+8*opsWords {
		return cost{}, fmt.Errorf("%w: GET %s payload is %d bytes", errMismatch, r.dst, len(p))
	}
	bitsN := binary.LittleEndian.Uint32(p)
	pop := binary.LittleEndian.Uint64(p[4:])
	n := binary.LittleEndian.Uint32(p[12:])
	if bitsN != opsBits || n != opsWords || pop != popcount(r.want) || !wordsEqual(p[16:], r.want) {
		return cost{}, fmt.Errorf("%w: GET %s differs from the host oracle", errMismatch, r.dst)
	}
	return cost{}, nil
}

type opsInst struct {
	*wireEnv
	w    *opsWorkload
	c    *frameConn
	book *costBook
}

func (w *opsWorkload) start(h hooks) (instance, error) {
	e, err := startWireEnv(1, h)
	if err != nil {
		return nil, err
	}
	in := &opsInst{wireEnv: e, w: w, book: newCostBook(len(w.pool))}
	if err := in.load(); err != nil {
		in.close()
		return nil, err
	}
	e.setupDone()
	return in, nil
}

// load stores the operands and warms up: every writing slot once (so every
// GET target exists), then one whole pass, recording each slot's cost.
func (in *opsInst) load() error {
	nc, err := in.dial()
	if err != nil {
		return err
	}
	in.c = newFrameConn(nc)
	ok := func(_ int, status uint8, p []byte) error {
		if status != wire.StatusOK {
			return fmt.Errorf("%w: setup PUT: %v", errUnexpected, wire.DecodeErrorPayload(status, p))
		}
		return nil
	}
	put := func(b []byte, i int, id uint64) []byte {
		return wire.AppendPutRequest(b, id, operandName(i), opsBits, in.w.operands[i])
	}
	if err := in.c.pipelined(seq(opsOperands), opsOperands, put, ok); err != nil {
		return err
	}
	var writers []int
	for s, r := range in.w.pool {
		if r.kind != "get" {
			writers = append(writers, s)
		}
	}
	warm := func(slot int, status uint8, p []byte) error {
		if status != wire.StatusOK {
			return fmt.Errorf("%w: warm-up: %v", errUnexpected, wire.DecodeErrorPayload(status, p))
		}
		c, err := in.w.check(slot, p)
		if err != nil {
			return err
		}
		return in.book.record(slot, c)
	}
	if err := in.c.pipelined(writers, 64, in.w.build, warm); err != nil {
		return err
	}
	return in.c.pipelined(seq(len(in.w.pool)), 64, in.w.build, warm)
}

func (in *opsInst) handle(slot int, status uint8, p []byte) (bool, error) {
	if status != wire.StatusOK {
		return statusErr(status, p)
	}
	c, err := in.w.check(slot, p)
	if err != nil {
		return false, err
	}
	return false, in.book.check(slot, c)
}

// schedule returns the Poisson arrival times (ns from the start) of a
// window of about d at opsRate, rounded up to whole passes of the pool.
func (in *opsInst) schedule(d time.Duration) []int64 {
	n := len(in.w.pool)
	total := int(opsRate*d.Seconds()+float64(n)-1) / n * n
	total = max(total, n)
	rng := rand.New(rand.NewSource(in.w.seed ^ 0x5eed))
	due := make([]int64, total)
	t := float64(time.Millisecond)
	for i := range due {
		due[i] = int64(t)
		t += rng.ExpFloat64() / opsRate * 1e9
	}
	return due
}

func (in *opsInst) window(d time.Duration, traced bool) (*window, error) {
	nc, err := in.dial()
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	before := in.counters()
	w, err := openLoop(newFrameConn(nc), in.schedule(d), len(in.w.pool), traced, in.w.build, in.handle)
	if err != nil {
		return nil, err
	}
	return finishWindow(w, in.counters().sub(before), in.book)
}

func (in *opsInst) probe() (layerTimes, error) {
	var lt layerTimes
	n := len(in.w.pool)
	rtt, hdl, err := wireProbe(in.wireEnv, in.c, n, in.w.build, in.handle)
	if err != nil {
		return lt, err
	}
	acc := in.facadeAcc()
	vecs := make([]*elp2im.BitVector, opsOperands)
	for i := range vecs {
		vecs[i] = bitVector(opsBits, in.w.operands[i])
	}
	dsts := make([]*elp2im.BitVector, n)
	srcs := make([][]*elp2im.BitVector, n)
	for s, r := range in.w.pool {
		if r.kind != "get" {
			dsts[s] = elp2im.NewBitVector(opsBits)
			for _, x := range r.srcs {
				srcs[s] = append(srcs[s], vecs[x])
			}
		}
	}
	fac, err := timeSlots(n, func(s int) error {
		r := &in.w.pool[s]
		var err error
		switch r.kind {
		case "reduce":
			_, err = acc.Reduce(r.op, dsts[s], srcs[s]...)
		case "and", "or", "xor":
			_, err = acc.Op(r.op, dsts[s], srcs[s][0], srcs[s][1])
		}
		return err
	})
	if err != nil {
		return lt, err
	}
	for s, r := range in.w.pool {
		if dsts[s] != nil && !slices.Equal(dsts[s].Words(), r.want) {
			return lt, fmt.Errorf("%w: facade %s differs from the host oracle", errMismatch, r.dst)
		}
	}
	isOp := func(s int) bool { k := in.w.pool[s].kind; return k == "and" || k == "or" || k == "xor" }
	isReduce := func(s int) bool { return in.w.pool[s].kind == "reduce" }
	self := make([]float64, n)
	for s := range self {
		self[s] = hdl[s] - fac[s]
	}
	lt.rtt, lt.handler = meanWhere(rtt, all), meanWhere(hdl, all)
	lt.batchSelf = meanWhere(self, func(s int) bool { return isOp(s) || isReduce(s) })
	lt.op, lt.reduce = meanWhere(fac, isOp), meanWhere(fac, isReduce)
	if lt.codec, err = codecNS(n, in.w.build); err != nil {
		return lt, err
	}
	var bytes float64
	for _, r := range in.w.pool {
		if r.kind != "get" {
			bytes += float64((len(r.srcs) + 1) * opsWords * 8)
		}
	}
	lt.kernelBytes = bytes / float64(n)
	return lt, nil
}

func (in *opsInst) close() {
	if in.c != nil {
		_ = in.c.nc.Close()
	}
	in.wireEnv.close()
}

// finishWindow attaches the counter deltas and the modeled cost per
// request to w, cross-checking the server's modeled totals when no request
// failed (a failed request never executed, so its cost is absent).
func finishWindow(w *window, delta counters, book *costBook) (*window, error) {
	w.delta = delta
	w.modeled = book.perReq()
	if w.failed == 0 {
		if w.attempted%int64(len(book.exp)) != 0 {
			return nil, fmt.Errorf("%w: window of %d requests is not whole passes of %d", errUnexpected, w.attempted, len(book.exp))
		}
		if err := crossCheck(delta.totals, book, w.completed()); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// statsPayload decodes an op/reduce response (Stats only).
func statsPayload(p []byte) (cost, error) {
	if len(p) != 48 {
		return cost{}, fmt.Errorf("%w: stats payload is %d bytes", errMismatch, len(p))
	}
	st, err := wire.DecodeStats(p)
	if err != nil {
		return cost{}, fmt.Errorf("%w: %v", errMismatch, err)
	}
	return costOf(st), nil
}

// costOf is the modeled cost a response's stats block reports.
func costOf(st wire.Stats) cost {
	return cost{st.LatencyNS, st.EnergyNJ, st.AveragePowerW, st.RowOps, st.Commands, st.Wordlines}
}

func operandName(i int) string { return "x" + strconv.Itoa(i) }

func joinInts(xs []int) string {
	var sb strings.Builder
	for _, x := range xs {
		sb.WriteByte('.')
		sb.WriteString(strconv.Itoa(x))
	}
	return sb.String()
}

// seq returns 0..n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func randomWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// foldWords is the host oracle of op folded over the operands srcs.
func foldWords(op elp2im.Op, operands [][]uint64, srcs []int) []uint64 {
	out := append([]uint64(nil), operands[srcs[0]]...)
	for _, x := range srcs[1:] {
		for i, v := range operands[x] {
			switch op {
			case elp2im.OpAnd:
				out[i] &= v
			case elp2im.OpOr:
				out[i] |= v
			case elp2im.OpXor:
				out[i] ^= v
			}
		}
	}
	return out
}

func popcount(ws []uint64) uint64 {
	var n int
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// wordsEqual compares a raw little-endian word payload with want.
func wordsEqual(raw []byte, want []uint64) bool {
	if len(raw) != 8*len(want) {
		return false
	}
	for i, w := range want {
		if binary.LittleEndian.Uint64(raw[8*i:]) != w {
			return false
		}
	}
	return true
}

// bitVector copies words into a new facade bit vector of n bits.
func bitVector(n int, words []uint64) *elp2im.BitVector {
	v := elp2im.NewBitVector(n)
	copy(v.Words(), words)
	return v
}

// wordBytes is the little-endian byte form of words.
func wordBytes(words []uint64) []byte {
	raw := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(raw[8*i:], w)
	}
	return raw
}
