package kernel

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/engine"
)

// MaxFusedInputs is the largest input arity a fused kernel supports. Six
// inputs give a 64-entry truth table — exactly one 64-bit probe word —
// so deriving a k-input kernel costs a single engine run regardless of
// how many gates it fuses.
const MaxFusedInputs = 6

// FusedOp is one engine operation of a fused-kernel specification, in
// register form: Dst = Op(A, B). Registers 0..K-1 are the kernel inputs
// (read-only; Dst must be a scratch register ≥ K); B is ignored for
// unary ops.
type FusedOp struct {
	Op   engine.Op
	Dst  int
	A, B int
}

// FusedSpec describes a k-input boolean function as the engine command
// sequence that computes it: a register program over K input registers
// and Regs-K scratch registers, leaving the function value in Result.
// The plan compiler (internal/plan) produces one spec per fused cluster;
// DeriveFused runs the spec's real command sequence on the device model
// to learn — never assume — its truth table.
type FusedSpec struct {
	// K is the input arity (1..MaxFusedInputs).
	K int
	// Regs is the total register count, inputs included.
	Regs int
	// Ops is the command sequence in execution order.
	Ops []FusedOp
	// Result is the register holding the function value after Ops.
	Result int
}

// validate checks the register shape of a spec.
func (sp *FusedSpec) validate() error {
	if sp.K < 1 || sp.K > MaxFusedInputs {
		return fmt.Errorf("kernel: fused spec has %d inputs, want 1..%d", sp.K, MaxFusedInputs)
	}
	if sp.Regs < sp.K {
		return fmt.Errorf("kernel: fused spec has %d registers for %d inputs", sp.Regs, sp.K)
	}
	if sp.Result < 0 || sp.Result >= sp.Regs {
		return fmt.Errorf("kernel: fused spec result register %d out of range", sp.Result)
	}
	for i, op := range sp.Ops {
		if op.Dst < sp.K || op.Dst >= sp.Regs {
			return fmt.Errorf("kernel: fused spec op %d writes register %d (inputs are read-only)", i, op.Dst)
		}
		if op.A < 0 || op.A >= sp.Regs {
			return fmt.Errorf("kernel: fused spec op %d reads register %d out of range", i, op.A)
		}
		if !op.Op.Unary() && (op.B < 0 || op.B >= sp.Regs) {
			return fmt.Errorf("kernel: fused spec op %d reads register %d out of range", i, op.B)
		}
	}
	return nil
}

// Key returns the spec's canonical FusedSet cache key: the register shape
// and the full command sequence. Callers resolving one spec repeatedly
// compute it once (the plan compiler stores it on each cluster).
func (sp *FusedSpec) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "k%d r%d res%d", sp.K, sp.Regs, sp.Result)
	for _, op := range sp.Ops {
		fmt.Fprintf(&b, ";%d:%d=%d,%d", op.Op, op.Dst, op.A, op.B)
	}
	return b.String()
}

// Execution geometry of a fused kernel's word loop. Every gate is one
// pass over a block, and every intermediate value lives in a scratch
// register of the block's width: blocks of 1024 words (8 KiB per
// register) amortize the per-block view setup and indirect gate calls
// down to noise while the few live scratch rows stay cache-resident, so
// only the inputs and the result touch main memory. 32 scratch registers
// bound the program's live values (a program needing more fails
// derivation and the caller falls back to node-at-a-time kernels).
const (
	fusedBlockWords = 1024
	fusedMaxScratch = 32
)

// fusedScratch pools Apply's per-call register file (16 KiB): getting a
// used file skips the zeroing a fresh stack array would pay on every
// call, which dominates when Apply runs once per stripe.
var fusedScratch = sync.Pool{
	New: func() any { return new([fusedMaxScratch][fusedBlockWords]uint64) },
}

// result-kind markers for Fused.resConst.
const (
	resOperand = -1 // result is f.res (an input or scratch operand)
	resZero    = 0
	resOne     = 1
)

// fusedInstr is one synthesized word-level operation: a 4-bit binary
// truth table applied over whole words by its gateFns loop. Operand
// encoding: 0..k-1 are the kernel inputs, k+r is scratch register r.
type fusedInstr struct {
	tab       uint8
	dst, a, b uint8
}

// Fused is a compiled k-input word-level kernel: the whole cluster of
// gates runs block by block over the operand words, one gate loop per
// pass, with intermediates in cache-resident scratch. Like the 2-input
// Kernel it is self-derived — DeriveFused probes the engine's real
// command sequence and compiles the observed truth table — so a fused
// kernel cannot disagree with the command-accurate execution of its
// spec. Apply is safe for concurrent use.
type Fused struct {
	k        int
	table    uint64
	code     []fusedInstr // one instr per gate, in execution order
	nscratch int
	res      uint8
	resConst int8
}

// K returns the kernel's input arity.
func (f *Fused) K() int { return f.k }

// Table returns the derived truth table: bit i holds the function value
// where input j = (i>>j)&1, for i < 2^K.
func (f *Fused) Table() uint64 { return f.table }

// Ops returns the gate count of the compiled program — the cluster's
// logical cost, to compare against one kernel per node on the
// node-at-a-time path.
func (f *Fused) Ops() int { return len(f.code) }

// String renders the kernel for diagnostics.
func (f *Fused) String() string {
	return fmt.Sprintf("fused(k=%d, table=%#x, ops=%d)", f.k, f.table, len(f.code))
}

// Apply computes dst = f(srcs...) word-wise over len(dst) words. srcs
// must hold K slices of at least len(dst) words; dst must not overlap
// any source (sources are re-read throughout the fused program). Tail
// bits beyond the caller's logical vector length are written like any
// others — callers that maintain a canonical form must re-mask.
func (f *Fused) Apply(dst []uint64, srcs [][]uint64) {
	if f.resConst != resOperand {
		w := uint64(0)
		if f.resConst == resOne {
			w = ^uint64(0)
		}
		for i := range dst {
			dst[i] = w
		}
		return
	}
	if len(f.code) == 0 {
		// The function collapsed to one of its inputs.
		copy(dst, srcs[f.res][:len(dst)])
		return
	}
	// Block-wise evaluation: a pooled scratch register file, with every
	// operand resolved once per block into a view slice. The result
	// register's view aliases dst directly, so the final value needs no
	// copy-out. Pooled files are reused without zeroing — compiled
	// programs define every scratch register before reading it.
	file := fusedScratch.Get().(*[fusedMaxScratch][fusedBlockWords]uint64)
	defer fusedScratch.Put(file)
	var view [MaxFusedInputs + fusedMaxScratch][]uint64
	n := len(dst)
	for base := 0; base < n; base += fusedBlockWords {
		m := n - base
		if m > fusedBlockWords {
			m = fusedBlockWords
		}
		for j := 0; j < f.k; j++ {
			view[j] = srcs[j][base : base+m]
		}
		for r := 0; r < f.nscratch; r++ {
			view[f.k+r] = file[r][:m]
		}
		view[f.res] = dst[base : base+m]
		for i := range f.code {
			in := &f.code[i]
			gateFns[in.tab](view[in.dst], view[in.a], view[in.b])
		}
	}
}

// varPat64 holds the packed probe pattern of input j: bit i = (i>>j)&1.
// The patterns are periodic in 2^K for any K ≤ 6, so one 64-bit word
// probes every input combination at once (with combinations repeating
// when K < 6 — free redundancy the derivation cross-checks).
var varPat64 = [MaxFusedInputs]uint64{
	0xAAAA_AAAA_AAAA_AAAA,
	0xCCCC_CCCC_CCCC_CCCC,
	0xF0F0_F0F0_F0F0_F0F0,
	0xFF00_FF00_FF00_FF00,
	0xFFFF_0000_FFFF_0000,
	0xFFFF_FFFF_0000_0000,
}

// ProbePattern returns input j's packed probe pattern: bit i = (i>>j)&1.
// Evaluating a k-input function over the first k patterns as word values
// yields its truth table in the low 2^k bits — the software-side mirror
// of what DeriveFused reads back from the device.
func ProbePattern(j int) uint64 { return varPat64[j] }

// fusedVerifyWords are fixed full-word operand patterns for the
// post-derivation verification run (one per possible input).
var fusedVerifyWords = [MaxFusedInputs]uint64{
	0xA5F0_0FC3_5A3C_96E1,
	0x0FF0_C3A5_E196_3CA5,
	0xDEAD_BEEF_0135_8BD9,
	0x7E57_AB1E_C0FF_EE11,
	0x1234_5678_9ABC_DEF0,
	0x8642_FDB9_7531_ECA8,
}

// tableMask returns the 2^k-bit truth-table mask.
func tableMask(k int) uint64 {
	if k >= MaxFusedInputs {
		return ^uint64(0)
	}
	return 1<<(1<<uint(k)) - 1
}

// DeriveFused probes exec's execution of the spec's command sequence on
// a scratch subarray — all 2^K input combinations packed into one
// 64-column run — reads the k-input truth table back from the result
// row, and compiles it to a block-wise program of gateFns passes. Like
// Derive, the result is grounded in the device model: a verification run
// on full-word operand patterns cross-checks the compiled kernel against
// the engine, and any disagreement (or non-uniform behaviour across bit
// positions) fails derivation so the caller stays on a command-accurate
// path.
func DeriveFused(exec Executor, spec FusedSpec, module dram.Config) (*Fused, error) {
	if exec == nil {
		return nil, fmt.Errorf("kernel: nil executor")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	dcc := module.DualContactRows
	if dcc < 2 {
		dcc = 2
	}
	// Registers live in rows 0..Regs-1. Engines stage scratch in the top
	// rows (Ambit's 6-row B-group, DRISA's 4 NOR-latch rows) and the
	// dual-contact rows, so grant 8 rows of headroom above the registers.
	rows := spec.Regs + 8
	if rows < probeRows {
		rows = probeRows
	}
	sub := dram.NewSubarray(dram.Config{
		Banks:            1,
		SubarraysPerBank: 1,
		RowsPerSubarray:  rows,
		Columns:          probeCols,
		DualContactRows:  dcc,
	})

	word, err := runFusedProbe(exec, &spec, sub, varPat64[:spec.K])
	if err != nil {
		return nil, fmt.Errorf("kernel: probing fused spec: %w", err)
	}
	// The packed input patterns are periodic in 2^K, so a pure per-bit
	// function must read back periodic too; any aperiodicity means the
	// sequence is position-dependent.
	mask := tableMask(spec.K)
	table := word & mask
	for shift := 1 << uint(spec.K); shift < 64; shift += 1 << uint(spec.K) {
		if (word>>uint(shift))&mask != table {
			return nil, fmt.Errorf("kernel: fused spec is not a pure bitwise function: aperiodic probe word %016x", word)
		}
	}

	// Two programs compute the table. Shannon synthesis reconstructs the
	// function from the table alone and can cost several times the
	// cluster's own gate count; the spec's register program, lowered gate
	// for gate, is a word-level implementation too. Both get their
	// single-use NOTs folded away, and the lowering wins if it compiles to
	// fewer gates — but only after checking it against the probed word, so
	// a canonical-gate assumption that disagrees with the engine's observed
	// behaviour is discarded (ties and degenerate collapses stay with the
	// synthesis).
	f, err := synthesize(table, spec.K).foldNots().compile(table)
	if err != nil {
		return nil, err
	}
	if s := compileSpec(&spec); s != nil {
		g, err := s.foldNots().compile(table)
		if err == nil && len(g.code) < len(f.code) && g.applyWord(varPat64[:spec.K]) == word {
			f = g
		}
	}
	got, err := runFusedProbe(exec, &spec, sub, fusedVerifyWords[:spec.K])
	if err != nil {
		return nil, fmt.Errorf("kernel: verifying fused spec: %w", err)
	}
	if want := f.applyWord(fusedVerifyWords[:spec.K]); got != want {
		return nil, fmt.Errorf("kernel: fused spec is not a pure bitwise function: device %016x, compiled table %016x",
			got, want)
	}
	return f, nil
}

// applyWord evaluates f over one word per input.
func (f *Fused) applyWord(inputs []uint64) uint64 {
	srcs := make([][]uint64, len(inputs))
	for j := range srcs {
		srcs[j] = inputs[j : j+1]
	}
	var out [1]uint64
	f.Apply(out[:], srcs)
	return out[0]
}

// specTab maps an engine op to its canonical 4-bit word truth table
// (bit i = f(a=i&1, b=(i>>1)&1)); unary ops read A through both operands.
func specTab(op engine.Op) (tab uint8, unary, ok bool) {
	switch op {
	case engine.OpNOT:
		return 0b0101, true, true
	case engine.OpAND:
		return 0b1000, false, true
	case engine.OpOR:
		return 0b1110, false, true
	case engine.OpNAND:
		return 0b0111, false, true
	case engine.OpNOR:
		return 0b0001, false, true
	case engine.OpXOR:
		return 0b0110, false, true
	case engine.OpXNOR:
		return 0b1001, false, true
	case engine.OpCOPY:
		return 0b1010, true, true
	}
	return 0, false, false
}

// compileSpec lowers the spec's own register program gate for gate to
// an SSA program, resolving every register read to the value last
// written there. The lowering assumes canonical gate semantics, so the
// caller must validate the compiled result against the probed truth
// table before trusting it. Returns nil when the spec cannot be lowered:
// an unknown op, or a read of a never-written scratch register.
func compileSpec(spec *FusedSpec) *synState {
	s := newSynState(spec.K)
	reg := make([]int, spec.Regs)
	defined := make([]bool, spec.Regs)
	for j := 0; j < spec.K; j++ {
		reg[j], defined[j] = j, true
	}
	for _, op := range spec.Ops {
		tab, unary, ok := specTab(op.Op)
		if !ok {
			return nil
		}
		b := op.B
		if unary {
			b = op.A
		}
		if !defined[op.A] || !defined[b] {
			return nil
		}
		reg[op.Dst] = s.define(opKey{tab: tab, a: reg[op.A], b: reg[b]})
		defined[op.Dst] = true
	}
	if !defined[spec.Result] {
		return nil
	}
	s.res = reg[spec.Result]
	return s
}

// runFusedProbe loads the K input rows with the given words, executes the
// spec's command sequence, and returns the result row's first word.
func runFusedProbe(exec Executor, spec *FusedSpec, sub *dram.Subarray, inputs []uint64) (uint64, error) {
	sub.Precharge()
	for j, w := range inputs {
		sub.LoadRow(j, bitvec.FromWords([]uint64{w}, probeCols))
	}
	// Spec registers have clean read-many semantics. When the engine's
	// sequence consumes its A row (engine.OperandConsumer — ELP2IM's
	// two-buffer XOR/XNOR), re-stage A into a headroom row first; row Regs
	// is free, since consuming engines scratch only in the dual-contact
	// rows.
	oc, _ := exec.(engine.OperandConsumer)
	staging := spec.Regs
	for _, op := range spec.Ops {
		a := op.A
		if oc != nil && oc.ConsumesOperandA(op.Op) {
			if err := exec.Execute(sub, engine.OpCOPY, staging, a, -1); err != nil {
				return 0, err
			}
			a = staging
		}
		b := -1
		if !op.Op.Unary() {
			b = op.B
		}
		if err := exec.Execute(sub, op.Op, op.Dst, a, b); err != nil {
			return 0, err
		}
	}
	return sub.RowData(spec.Result).Words()[0], nil
}

// Synthesis operand encoding: non-negative values are inputs (0..k-1)
// then SSA values (k+i for the value defined by instruction i); the two
// negatives are the constant functions.
const (
	synConst0 = -1
	synConst1 = -2
)

// synKey memoizes one subfunction during Shannon decomposition.
type synKey struct {
	table uint64
	n     int
}

// opKey memoizes one emitted word operation (value numbering).
type opKey struct {
	tab  uint8
	a, b int
}

// synState is one SSA program under construction: the gate list, the
// operand holding its value, and the memo tables of a synthesis run.
type synState struct {
	k     int
	code  []opKey // SSA program: instruction i defines value k+i
	res   int     // operand holding the program's value
	funcs map[synKey]int
	ops   map[opKey]int
}

// newSynState returns an empty program over k inputs.
func newSynState(k int) *synState {
	return &synState{k: k, funcs: map[synKey]int{}, ops: map[opKey]int{}}
}

// synthesize builds an SSA program for a 2^k-entry truth table: Shannon
// decomposition on the highest variable with memoized subfunctions and
// constant/identity folding.
func synthesize(table uint64, k int) *synState {
	s := newSynState(k)
	s.res = s.rec(table&tableMask(k), k)
	return s
}

// rec returns the operand computing the n-variable subfunction `table`.
func (s *synState) rec(table uint64, n int) int {
	mask := tableMask(n)
	table &= mask
	if table == 0 {
		return synConst0
	}
	if table == mask {
		return synConst1
	}
	key := synKey{table: table, n: n}
	if v, ok := s.funcs[key]; ok {
		return v
	}
	// Identity or complement of a single input.
	for j := 0; j < n; j++ {
		if pat := varPat64[j] & mask; table == pat {
			s.funcs[key] = j
			return j
		} else if table == ^pat&mask {
			v := s.not(j)
			s.funcs[key] = v
			return v
		}
	}
	// Shannon on the highest variable: table = hi·x_{n-1} + lo·¬x_{n-1}.
	half := uint(1) << uint(n-1)
	loMask := tableMask(n - 1)
	lo := table & loMask
	hi := (table >> half) & loMask
	var v int
	switch {
	case lo == hi:
		v = s.rec(lo, n-1)
	case hi == ^lo&loMask:
		// f = lo ⊕ x_{n-1}: the selector toggles the subfunction.
		v = s.emit(0b0110, s.rec(lo, n-1), n-1)
	default:
		// General mux; emit's constant folding collapses the degenerate
		// halves (lo==0 → sel∧hi, hi==1 → lo∨sel, ...) for free.
		l, h := s.rec(lo, n-1), s.rec(hi, n-1)
		sel := n - 1
		v = s.emit(0b1110, s.emit(0b1000, sel, h), s.emit(0b0010, l, sel))
	}
	s.funcs[key] = v
	return v
}

// not returns the operand computing ¬x, memoized.
func (s *synState) not(x int) int {
	switch x {
	case synConst0:
		return synConst1
	case synConst1:
		return synConst0
	}
	return s.define(opKey{tab: 0b0101, a: x, b: x})
}

// emit returns the operand computing tab(a, b), folding constants,
// equal operands, and degenerate tables, and value-numbering the rest.
// Table bit i = f(a=i&1, b=i>>1&1), matching gateFns.
func (s *synState) emit(tab uint8, a, b int) int {
	t0, t1, t2, t3 := tab&1, tab>>1&1, tab>>2&1, tab>>3&1
	switch {
	case a == b:
		return s.foldUnary(t0|t3<<1, a)
	case a == synConst0:
		return s.foldUnary(t0|t2<<1, b)
	case a == synConst1:
		return s.foldUnary(t1|t3<<1, b)
	case b == synConst0:
		return s.foldUnary(t0|t1<<1, a)
	case b == synConst1:
		return s.foldUnary(t2|t3<<1, a)
	}
	switch tab {
	case 0b0000:
		return synConst0
	case 0b1111:
		return synConst1
	case 0b1010:
		return a
	case 0b1100:
		return b
	case 0b0101:
		return s.not(a)
	case 0b0011:
		return s.not(b)
	}
	// Canonicalize under operand swap (bit1 ↔ bit2) so a∧b and b∧a — and
	// a∧¬b vs ¬b∧a — value-number identically.
	swapped := tab&0b1001 | tab&0b0010<<1 | tab&0b0100>>1
	if swapped < tab || (swapped == tab && a > b) {
		tab, a, b = swapped, b, a
	}
	return s.define(opKey{tab: tab, a: a, b: b})
}

// foldUnary reduces a 2-entry table over one operand: bit 0 = g(0),
// bit 1 = g(1).
func (s *synState) foldUnary(u uint8, x int) int {
	switch u {
	case 0b00:
		return synConst0
	case 0b11:
		return synConst1
	case 0b10:
		return x
	default: // 0b01
		return s.not(x)
	}
}

// define appends one SSA instruction (or returns its memoized value).
func (s *synState) define(k opKey) int {
	if v, ok := s.ops[k]; ok {
		return v
	}
	v := s.k + len(s.code)
	s.code = append(s.code, k)
	s.ops[k] = v
	return v
}

// live marks the SSA values the result depends on, itself included.
func (s *synState) live() []bool {
	live := make([]bool, len(s.code))
	if s.res < s.k {
		return live
	}
	live[s.res-s.k] = true
	for i := len(s.code) - 1; i >= 0; i-- {
		if !live[i] {
			continue
		}
		if a := s.code[i].a; a >= s.k {
			live[a-s.k] = true
		}
		if b := s.code[i].b; b >= s.k {
			live[b-s.k] = true
		}
	}
	return live
}

// foldNots returns the program with every NOT that exactly one gate
// reads absorbed into that gate's truth table: ¬x on operand a swaps
// table bits 0↔1 and 2↔3, on operand b bits 0↔2 and 1↔3. A NOT read by
// several gates, or one that is the result, stays. The rewritten gates
// are re-emitted into a fresh program, so emit's constant folding and
// value numbering apply again and compile drops the absorbed NOTs as
// dead code.
func (s *synState) foldNots() *synState {
	live := s.live()
	isNot := func(in opKey) bool { return in.tab == 0b0101 && in.a == in.b }
	// readers counts the live gates reading each value (a gate reading
	// it twice counts once), plus one for the result.
	readers := make([]int, len(s.code))
	for i, in := range s.code {
		if !live[i] {
			continue
		}
		if in.a >= s.k {
			readers[in.a-s.k]++
		}
		if in.b >= s.k && in.b != in.a {
			readers[in.b-s.k]++
		}
	}
	if s.res >= s.k {
		readers[s.res-s.k]++
	}
	folds := func(v int) bool { return v >= s.k && readers[v-s.k] == 1 && isNot(s.code[v-s.k]) }

	t := newSynState(s.k)
	val := make([]int, len(s.code)) // t's operand for each value of s
	at := func(v int) int {
		if v < s.k {
			return v
		}
		return val[v-s.k]
	}
	for i, in := range s.code {
		if !live[i] {
			continue
		}
		tab, a, b := in.tab, in.a, in.b
		if !isNot(in) {
			for folds(a) {
				x := s.code[a-s.k].a
				tab = tab&0b0101<<1 | tab&0b1010>>1
				if b == a {
					b, tab = x, tab&0b0011<<2|tab&0b1100>>2
				}
				a = x
			}
			for folds(b) {
				b, tab = s.code[b-s.k].a, tab&0b0011<<2|tab&0b1100>>2
			}
		}
		val[i] = t.emit(tab, at(a), at(b))
	}
	t.res = at(s.res)
	return t
}

// compile finishes a program: dead-code elimination over the SSA code,
// then a liveness-scan register allocation into at most fusedMaxScratch
// scratch registers (word loops are element-wise, so a destination may
// reuse a dying operand's register).
func (s *synState) compile(table uint64) (*Fused, error) {
	f := &Fused{k: s.k, table: table, resConst: resOperand}
	res := s.res
	switch {
	case res == synConst0:
		f.resConst = resZero
		return f, nil
	case res == synConst1:
		f.resConst = resOne
		return f, nil
	case res < s.k:
		f.res = uint8(res)
		return f, nil
	}

	live := s.live()

	// Last use per live value (the result lives to the end).
	lastUse := make([]int, len(s.code))
	for i, in := range s.code {
		if !live[i] {
			continue
		}
		if a := in.a; a >= s.k {
			lastUse[a-s.k] = i
		}
		if b := in.b; b >= s.k {
			lastUse[b-s.k] = i
		}
	}
	lastUse[res-s.k] = len(s.code)

	reg := make([]int, len(s.code))
	var free []int
	alloc := func() int {
		if n := len(free); n > 0 {
			r := free[n-1]
			free = free[:n-1]
			return r
		}
		r := f.nscratch
		f.nscratch++
		return r
	}
	operand := func(v, at int) uint8 {
		if v < s.k {
			return uint8(v)
		}
		if lastUse[v-s.k] == at {
			free = append(free, reg[v-s.k])
		}
		return uint8(s.k + reg[v-s.k])
	}
	for i, in := range s.code {
		if !live[i] {
			continue
		}
		a := operand(in.a, i)
		b := a
		if in.b != in.a {
			b = operand(in.b, i)
		}
		reg[i] = alloc()
		f.code = append(f.code, fusedInstr{
			tab: in.tab,
			dst: uint8(s.k + reg[i]),
			a:   a,
			b:   b,
		})
	}
	if f.nscratch > fusedMaxScratch {
		return nil, fmt.Errorf("kernel: fused synthesis needs %d scratch registers, max %d", f.nscratch, fusedMaxScratch)
	}
	f.res = uint8(s.k + reg[res-s.k])
	return f, nil
}

// fusedEntry is one cached derivation outcome.
type fusedEntry struct {
	f   *Fused
	err error
}

// fusedCacheCap bounds the fused-kernel cache. Specs come from user
// expressions, so the population is unbounded; on overflow an arbitrary
// entry is evicted (re-derivation is one engine probe — cheap).
const fusedCacheCap = 1024

// FusedSet lazily derives and memoizes fused kernels for one executor,
// keyed by the full spec (command sequence and register shape). Like
// Set, derivation failures are cached so the caller's fallback decision
// stays O(1). A FusedSet is safe for concurrent use.
type FusedSet struct {
	exec   Executor
	module dram.Config

	mu      sync.Mutex
	entries map[string]fusedEntry
}

// NewFusedSet returns a fused-kernel cache probing exec under module's
// dual-contact geometry.
func NewFusedSet(exec Executor, module dram.Config) *FusedSet {
	return &FusedSet{exec: exec, module: module, entries: map[string]fusedEntry{}}
}

// Fused returns the spec's compiled kernel, deriving it on first use.
// key must be spec.Key(). The error (nil or not) is stable across calls
// while the entry stays cached.
func (s *FusedSet) Fused(key string, spec FusedSpec) (*Fused, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		return e.f, e.err
	}
	f, err := DeriveFused(s.exec, spec, s.module)
	if len(s.entries) >= fusedCacheCap {
		for k := range s.entries {
			delete(s.entries, k)
			break
		}
	}
	s.entries[key] = fusedEntry{f: f, err: err}
	return f, err
}
