package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"time"

	elp2im "repro"
	"repro/internal/server"
)

// mixed_json_rw: a closed loop of two callers over HTTP/JSON keep-alive
// connections to a 2-shard server, writes beside reads on one store: PUT
// overwrites of 1 Mi-bit bit vectors and of 16-bit vertical vectors of
// 16 Ki elements, op/reduce on the bit vectors through the per-shard
// batchers, arith add/lt on the vertical vectors, and GETs of the results
// checked against a host mirror. It exercises the JSON/base64 codec, the
// store write and adopt path, the vertical transpose and large-operand
// Op/Reduce kernels.
const (
	mixedBits     = 1 << 20
	mixedWords    = mixedBits / 64
	mixedElems    = 16 << 10
	mixedWidth    = 16
	mixedOperands = 4 // bit vectors b0..b3 and vertical vectors v0..v3 per caller
	mixedVariants = 4 // seeded payloads the PUT overwrites draw from
	mixedResults  = 6 // bit results r0..r5 and vertical results s0..s5 per caller
	mixedShards   = 2
	mixedCallers  = 2
)

// mixedMix is the pool's composition in slots (kind and operation); the
// order, the operands, the payload variants and each "op" slot's operation
// (and, or or xor) are seeded.
var mixedMix = []struct {
	kind, op string
	n        int
}{
	{"put_bits", "", 80}, {"put_vert", "", 40}, {"op", "", 120}, {"reduce", "and", 20}, {"reduce", "or", 20},
	{"arith", "add", 40}, {"arith", "lt", 40}, {"get", "", 120},
}

type mixedReq struct {
	kind    string // put_bits, put_vert, op, reduce, arith, get
	op      string // and/or/xor (op), and/or (reduce), add/lt (arith)
	dst     string // vector name, without the caller's prefix
	srcs    []string
	variant int // put_bits, put_vert
	method  string
	paths   [mixedCallers]string
	bodies  [mixedCallers][]byte
}

type mixedWorkload struct {
	bits  [mixedVariants][]uint64 // bit-vector payloads
	elems [mixedVariants][]uint64 // vertical payloads
	puts  [2][mixedVariants][]byte
	pool  []mixedReq
}

// vert is a mirrored vertical vector.
type vert struct {
	width int
	elems []uint64
}

// mirror is one caller's host copy of its vectors.
type mirror struct {
	bits  map[string][]uint64
	verts map[string]vert
}

func callerPrefix(c int) string { return "c" + strconv.Itoa(c) + "/" }

func (w *mixedWorkload) generate(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for v := range mixedVariants {
		w.bits[v] = randomWords(rng, mixedWords)
		w.elems[v] = make([]uint64, mixedElems)
		for i := range w.elems[v] {
			w.elems[v][i] = uint64(rng.Intn(1 << mixedWidth))
		}
		var err error
		if w.puts[0][v], err = json.Marshal(server.VectorPayload{Bits: mixedBits, Data: wordsBase64(w.bits[v])}); err != nil {
			return err
		}
		if w.puts[1][v], err = json.Marshal(server.VectorPayload{ElemWidth: mixedWidth, Elems: wordsBase64(w.elems[v])}); err != nil {
			return err
		}
	}
	var kinds []mixedReq
	for _, m := range mixedMix {
		for range m.n {
			kinds = append(kinds, mixedReq{kind: m.kind, op: m.op})
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	operand := func(p string) string { return p + strconv.Itoa(rng.Intn(mixedOperands)) }
	w.pool = make([]mixedReq, len(kinds))
	for s, r := range kinds {
		switch r.kind {
		case "put_bits":
			r.dst, r.variant = operand("b"), rng.Intn(mixedVariants)
		case "put_vert":
			r.dst, r.variant = operand("v"), rng.Intn(mixedVariants)
		case "op":
			r.op, r.dst = []string{"and", "or", "xor"}[rng.Intn(3)], "r"+strconv.Itoa(rng.Intn(mixedResults))
			r.srcs = []string{operand("b"), operand("b")}
		case "reduce":
			r.dst = "r" + strconv.Itoa(rng.Intn(mixedResults))
			for _, i := range rng.Perm(mixedOperands)[:3] {
				r.srcs = append(r.srcs, "b"+strconv.Itoa(i))
			}
		case "arith":
			r.dst = "s" + strconv.Itoa(rng.Intn(mixedResults))
			r.srcs = []string{operand("v"), operand("v")}
		case "get":
			r.dst = []string{"r", "s"}[rng.Intn(2)] + strconv.Itoa(rng.Intn(mixedResults))
		}
		for c := range mixedCallers {
			if err := r.encode(c); err != nil {
				return err
			}
		}
		w.pool[s] = r
	}
	return nil
}

// encode builds caller c's request line and body for r.
func (r *mixedReq) encode(c int) error {
	p := callerPrefix(c)
	names := make([]string, len(r.srcs))
	for i, s := range r.srcs {
		names[i] = p + s
	}
	var body any
	switch r.kind {
	case "put_bits", "put_vert", "get":
		r.method, r.paths[c] = http.MethodPut, "/v1/vectors/"+p+r.dst
		if r.kind == "get" {
			r.method = http.MethodGet
		}
		return nil
	case "op":
		r.method, r.paths[c] = http.MethodPost, "/v1/op"
		body = server.OpRequest{Op: r.op, Dst: p + r.dst, X: names[0], Y: names[1]}
	case "reduce":
		r.method, r.paths[c] = http.MethodPost, "/v1/reduce"
		body = server.ReduceRequest{Op: r.op, Dst: p + r.dst, Srcs: names}
	case "arith":
		r.method, r.paths[c] = http.MethodPost, "/v1/arith"
		body = server.ArithRequest{Op: r.op, Dst: p + r.dst, X: names[0], Y: names[1]}
	}
	var err error
	r.bodies[c], err = json.Marshal(body)
	return err
}

// body returns the request body of slot for caller c.
func (w *mixedWorkload) body(slot, c int) []byte {
	r := &w.pool[slot]
	switch r.kind {
	case "put_bits":
		return w.puts[0][r.variant]
	case "put_vert":
		return w.puts[1][r.variant]
	}
	return r.bodies[c]
}

// check verifies a 200 response of slot against caller's mirror, applies
// the request to the mirror, and returns the modeled cost it reports.
func (w *mixedWorkload) check(m *mirror, slot int, body []byte) (cost, error) {
	r := &w.pool[slot]
	bad := func(format string, args ...any) (cost, error) {
		return cost{}, fmt.Errorf("%w: %s %s: %s", errMismatch, r.kind, r.dst, fmt.Sprintf(format, args...))
	}
	switch r.kind {
	case "put_bits":
		m.bits[r.dst] = w.bits[r.variant]
		return cost{}, nil
	case "put_vert":
		m.verts[r.dst] = vert{mixedWidth, w.elems[r.variant]}
		return cost{}, nil
	case "get":
		var vp server.VectorPayload
		if err := json.Unmarshal(body, &vp); err != nil {
			return bad("decode: %v", err)
		}
		if want, ok := m.bits[r.dst]; ok {
			raw, err := base64.StdEncoding.DecodeString(vp.Data)
			if err != nil || vp.Bits != mixedBits || !wordsEqual(raw, want) || vp.Popcount == nil || uint64(*vp.Popcount) != popcount(want) {
				return bad("bits differ from the host mirror")
			}
			return cost{}, nil
		}
		want := m.verts[r.dst]
		raw, err := base64.StdEncoding.DecodeString(vp.Elems)
		if err != nil || vp.ElemWidth != want.width || !wordsEqual(raw, want.elems) {
			return bad("elements differ from the host mirror")
		}
		return cost{}, nil
	}
	var or server.OpResponse
	if err := json.Unmarshal(body, &or); err != nil {
		return bad("decode: %v", err)
	}
	if r.kind == "arith" {
		out := hostArith(m, r)
		if or.Elems != mixedElems || or.ElemWidth != out.width {
			return bad("result shape %d×%d", or.Elems, or.ElemWidth)
		}
		m.verts[r.dst] = out
	} else {
		m.bits[r.dst] = hostBits(m, r)
	}
	st := or.Stats
	return cost{st.LatencyNS, st.EnergyNJ, st.AveragePowerW, uint64(st.RowOps), uint64(st.Commands), uint64(st.Wordlines)}, nil
}

// hostBits is the host oracle of an op or reduce slot over m.
func hostBits(m *mirror, r *mixedReq) []uint64 {
	srcs := make([][]uint64, len(r.srcs))
	for i, s := range r.srcs {
		srcs[i] = m.bits[s]
	}
	return foldWords(hostOp(r.op), srcs, seq(len(srcs)))
}

// hostArith is the host oracle of an arith slot over m.
func hostArith(m *mirror, r *mixedReq) vert {
	x, y := m.verts[r.srcs[0]].elems, m.verts[r.srcs[1]].elems
	out := vert{mixedWidth, make([]uint64, mixedElems)}
	if r.op == "lt" {
		out.width = 1
	}
	for i := range out.elems {
		if r.op == "add" {
			out.elems[i] = (x[i] + y[i]) & (1<<mixedWidth - 1)
		} else if x[i] < y[i] {
			out.elems[i] = 1
		}
	}
	return out
}

func hostOp(name string) elp2im.Op {
	return map[string]elp2im.Op{"and": elp2im.OpAnd, "or": elp2im.OpOr, "xor": elp2im.OpXor}[name]
}

// wordsBase64 is the JSON payload encoding of words: base64 of their
// little-endian bytes.
func wordsBase64(words []uint64) string {
	return base64.StdEncoding.EncodeToString(wordBytes(words))
}

type mixedInst struct {
	*httpEnv
	w       *mixedWorkload
	mirrors [mixedCallers]*mirror
	bufs    [mixedCallers]*bytes.Buffer
	book    *costBook
}

func (w *mixedWorkload) start(hooks) (instance, error) {
	e, err := startHTTPEnv(mixedShards, mixedCallers)
	if err != nil {
		return nil, err
	}
	in := &mixedInst{httpEnv: e, w: w, book: newCostBook(len(w.pool))}
	for c := range mixedCallers {
		in.mirrors[c] = &mirror{bits: map[string][]uint64{}, verts: map[string]vert{}}
		in.bufs[c] = new(bytes.Buffer)
	}
	if err := in.load(); err != nil {
		in.close()
		return nil, err
	}
	e.setupDone()
	return in, nil
}

// load stores every caller's operands and results, then warms up with one
// whole pass, recording each slot's cost.
func (in *mixedInst) load() error {
	for c := range mixedCallers {
		m := in.mirrors[c]
		// put stores vector <prefix><i> with payload variant i, as a bit
		// vector (kind 0) or a vertical one (kind 1), and mirrors it.
		put := func(prefix string, i, kind int) error {
			name, v := prefix+strconv.Itoa(i), i%mixedVariants
			status, body, _, err := in.send(c, http.MethodPut, "/v1/vectors/"+callerPrefix(c)+name, in.w.puts[kind][v])
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("%w: setup PUT: %d %s", errUnexpected, status, body)
			}
			if kind == 0 {
				m.bits[name] = in.w.bits[v]
			} else {
				m.verts[name] = vert{mixedWidth, in.w.elems[v]}
			}
			return err
		}
		for i := range mixedResults {
			if i < mixedOperands {
				if err := errors.Join(put("b", i, 0), put("v", i, 1)); err != nil {
					return err
				}
			}
			if err := errors.Join(put("r", i, 0), put("s", i, 1)); err != nil {
				return err
			}
		}
		for s := range in.w.pool {
			_, failed, err := in.do(c, s, true, in.send)
			if err == nil && failed {
				err = fmt.Errorf("%w: warm-up request shed", errUnexpected)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// send issues one request over caller c's keep-alive connection and reads
// the whole response body into the caller's buffer.
func (in *mixedInst) send(c int, method, path string, body []byte) (int, []byte, time.Time, error) {
	req, err := http.NewRequest(method, in.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return 0, nil, time.Time{}, fmt.Errorf("%w: %v", errUnexpected, err)
	}
	buf := in.bufs[c]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	recv := time.Now()
	resp.Body.Close()
	if err != nil {
		return 0, nil, time.Time{}, fmt.Errorf("%w: read body: %v", errUnexpected, err)
	}
	return resp.StatusCode, buf.Bytes(), recv, nil
}

// serve issues one request through the server's HTTP handler directly (no
// TCP, no HTTP client).
func (in *mixedInst) serve(_ int, method, path string, body []byte) (int, []byte, time.Time, error) {
	rec := httptest.NewRecorder()
	in.srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes(), time.Now(), nil
}

// transport issues one request for caller c: send or serve.
type transport func(c int, method, path string, body []byte) (status int, resp []byte, recv time.Time, err error)

// do issues slot as caller c through tr and verifies the response against
// the caller's mirror; warm-up records the slot's cost, later calls check
// it.
func (in *mixedInst) do(c, slot int, warm bool, tr transport) (time.Time, bool, error) {
	r := &in.w.pool[slot]
	status, body, recv, err := tr(c, r.method, r.paths[c], in.w.body(slot, c))
	if err != nil {
		return recv, false, err
	}
	switch {
	case status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout:
		return recv, true, nil
	case status != http.StatusOK:
		return recv, false, fmt.Errorf("%w: %s %s: status %d: %s", errUnexpected, r.method, r.paths[c], status, body)
	}
	co, err := in.w.check(in.mirrors[c], slot, body)
	if err != nil {
		return recv, false, err
	}
	if warm {
		return recv, false, in.book.record(slot, co)
	}
	return recv, false, in.book.check(slot, co)
}

func (in *mixedInst) window(d time.Duration, traced bool) (*window, error) {
	before := in.counters()
	w, err := closedLoop(mixedCallers, len(in.w.pool), d, traced, func(c, slot int) (time.Time, bool, error) {
		return in.do(c, slot, false, in.send)
	})
	if err != nil {
		return nil, err
	}
	return finishWindow(w, in.counters().sub(before), in.book)
}

func (in *mixedInst) probe() (layerTimes, error) {
	var lt layerTimes
	n := len(in.w.pool)
	seqDo := func(tr transport) func(int) error {
		return func(s int) error {
			_, failed, err := in.do(0, s, false, tr)
			if err == nil && failed {
				err = fmt.Errorf("%w: request shed in a sequential probe", errUnexpected)
			}
			return err
		}
	}
	rtt, err := timeSlots(n, seqDo(in.send))
	if err != nil {
		return lt, err
	}
	hdl, err := timeSlots(n, seqDo(in.serve))
	if err != nil {
		return lt, err
	}
	fac, err := in.facadeProbe()
	if err != nil {
		return lt, err
	}
	kind := func(ks ...string) func(int) bool {
		return func(s int) bool {
			for _, k := range ks {
				if in.w.pool[s].kind == k {
					return true
				}
			}
			return false
		}
	}
	self := make([]float64, n)
	for s := range self {
		self[s] = hdl[s] - fac[s]
	}
	lt.rtt, lt.handler = meanWhere(rtt, all), meanWhere(hdl, all)
	lt.batchSelf = meanWhere(self, kind("op", "reduce"))
	lt.op, lt.reduce, lt.arith = meanWhere(fac, kind("op")), meanWhere(fac, kind("reduce")), meanWhere(fac, kind("arith"))
	if lt.compile, err = repeatNS(func() error {
		for _, op := range []elp2im.ArithOp{elp2im.ArithAdd, elp2im.ArithLt} {
			if _, err := elp2im.CompileArith(op, mixedWidth); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return lt, err
	}
	lt.compile /= 2
	var v *elp2im.Vertical
	if lt.slice, err = repeatNS(func() (err error) {
		v, err = elp2im.VerticalFromElements(in.w.elems[0], mixedWidth)
		return err
	}); err != nil {
		return lt, err
	}
	if lt.unslice, err = repeatNS(func() error {
		if !slices.Equal(v.Elements(), in.w.elems[0]) {
			return fmt.Errorf("%w: vertical round trip", errMismatch)
		}
		return nil
	}); err != nil {
		return lt, err
	}
	var bytes float64
	for _, r := range in.w.pool {
		switch r.kind {
		case "op", "reduce":
			bytes += float64((len(r.srcs) + 1) * mixedWords * 8)
		case "arith":
			out := mixedWidth
			if r.op == "lt" {
				out = 1
			}
			bytes += float64((2*mixedWidth + out) * mixedElems / 8)
		}
	}
	lt.kernelBytes = bytes / float64(n)
	return lt, nil
}

// facadeProbe times direct facade calls for the pool's op, reduce and arith
// slots on caller 0's current operands, then checks each result against
// the host oracle.
func (in *mixedInst) facadeProbe() ([]float64, error) {
	acc := in.facadeAcc()
	m := in.mirrors[0]
	bvs := map[string]*elp2im.BitVector{}
	vts := map[string]*elp2im.Vertical{}
	for i := range mixedOperands {
		b, v := "b"+strconv.Itoa(i), "v"+strconv.Itoa(i)
		bvs[b] = bitVector(mixedBits, m.bits[b])
		var err error
		if vts[v], err = elp2im.VerticalFromElements(m.verts[v].elems, mixedWidth); err != nil {
			return nil, err
		}
	}
	progs := map[string]*elp2im.CompiledArith{}
	for name, op := range map[string]elp2im.ArithOp{"add": elp2im.ArithAdd, "lt": elp2im.ArithLt} {
		ca, err := elp2im.CompileArith(op, mixedWidth)
		if err != nil {
			return nil, err
		}
		progs[name] = ca
	}
	dst := elp2im.NewBitVector(mixedBits)
	var out *elp2im.Vertical
	call := func(s int) error {
		r := &in.w.pool[s]
		var err error
		switch r.kind {
		case "op":
			_, err = acc.Op(hostOp(r.op), dst, bvs[r.srcs[0]], bvs[r.srcs[1]])
		case "reduce":
			_, err = acc.Reduce(hostOp(r.op), dst, bvs[r.srcs[0]], bvs[r.srcs[1]], bvs[r.srcs[2]])
		case "arith":
			out, _, err = acc.ArithProg(progs[r.op], vts[r.srcs[0]], vts[r.srcs[1]], nil)
		}
		return err
	}
	fac, err := timeSlots(len(in.w.pool), call)
	if err != nil {
		return nil, err
	}
	for s, r := range in.w.pool {
		if r.kind != "op" && r.kind != "reduce" && r.kind != "arith" {
			continue
		}
		if err := call(s); err != nil {
			return nil, err
		}
		ok := false
		if r.kind == "arith" {
			want := hostArith(m, &r)
			ok = out.Width() == want.width && slices.Equal(out.Elements(), want.elems)
		} else {
			ok = slices.Equal(dst.Words(), hostBits(m, &r))
		}
		if !ok {
			return nil, fmt.Errorf("%w: facade %s %s differs from the host oracle", errMismatch, r.kind, r.op)
		}
	}
	return fac, nil
}
