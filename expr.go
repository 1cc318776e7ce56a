package elp2im

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/kernel"
	"repro/internal/pipeline"
)

// ErrBadExpr marks expression compilation failures — malformed source,
// unsupported shapes — as caller errors. Every error returned by
// CompileExpr (and by Eval for a bad expression) wraps it, so transports
// can map it to a client-error status (the HTTP server returns 400, not
// 500; see internal/server).
var ErrBadExpr = errors.New("bad expression")

// CompiledExpr is a compiled, reusable expression: the node-at-a-time
// program shared by every eval entry point (Accelerator.EvalExpr,
// Shard.EvalExpr, the batch submissions). Compile once with CompileExpr,
// evaluate many times over different bindings. A CompiledExpr is
// immutable and safe for concurrent use.
type CompiledExpr struct {
	prog *expr.Program
}

// Vars returns the expression's variable names in first-appearance
// order. Callers must not modify the returned slice.
func (ce *CompiledExpr) Vars() []string { return ce.prog.Vars }

// Source returns the original expression text.
func (ce *CompiledExpr) Source() string { return ce.prog.Source }

// CompileExpr parses and compiles a boolean expression (& | ^ ~ and
// parentheses over identifiers) into its node-at-a-time program: the DAG
// is optimized (CSE, double-negation removal, NOT-into-gate fusion) and
// scheduled one engine instruction per gate, with temps allocated by
// liveness. The program is the cost source and the instruction stream of
// both execution tiers (see internal/expr). Any failure wraps ErrBadExpr.
func CompileExpr(src string) (*CompiledExpr, error) {
	node, err := expr.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("elp2im: %w: %v", ErrBadExpr, err)
	}
	prog, err := expr.Compile(node)
	if err != nil {
		return nil, fmt.Errorf("elp2im: %w: %v", ErrBadExpr, err)
	}
	return &CompiledExpr{prog: prog}, nil
}

// Eval evaluates a boolean expression over named bulk bit-vectors entirely
// in DRAM and returns the result vector plus the modeled cost.
//
// The expression is compiled once per call — CompileExpr then EvalExpr;
// callers evaluating one expression repeatedly should compile it once
// themselves:
//
//	res, stats, err := acc.Eval("(dirty & ~referenced) | evicted", map[string]*BitVector{
//	    "dirty": d, "referenced": r, "evicted": e,
//	})
//
// All vectors must share one length. The subarray needs enough data rows
// for the variables plus the compiled temp count.
func (a *Accelerator) Eval(src string, vars map[string]*BitVector) (*BitVector, Stats, error) {
	ce, err := CompileExpr(src)
	if err != nil {
		return nil, Stats{}, err
	}
	return a.EvalExpr(ce, vars)
}

// EvalExpr evaluates a compiled expression over named bulk bit-vectors
// (see Eval) into a fresh result vector: EvalExprInto with a
// destination of the variables' common length.
func (a *Accelerator) EvalExpr(ce *CompiledExpr, vars map[string]*BitVector) (*BitVector, Stats, error) {
	out := NewBitVector(boundLen(ce.prog, vars))
	st, err := a.EvalExprInto(ce, out, vars)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, st, nil
}

// EvalExprInto evaluates a compiled expression over named bulk
// bit-vectors into dst, following Op's destination convention: dst must
// have the variables' common length, and its previous contents are
// overwritten. dst must not be one of the bound vectors. Execution picks
// the tier per call — derived word kernels, or the command-accurate
// device model — with bit-identical results and modeled cost on both.
// Reusing dst across calls keeps a warm program's word-level evaluation
// free of per-call vector allocation.
func (a *Accelerator) EvalExprInto(ce *CompiledExpr, dst *BitVector, vars map[string]*BitVector) (Stats, error) {
	p := ce.prog
	n, err := a.evalPrep(p, vars)
	if err != nil {
		return Stats{}, err
	}
	if err := checkEvalDst(p, dst, vars, n); err != nil {
		return Stats{}, err
	}
	cols := a.cfg.Module.Columns
	stripes := (n + cols - 1) / cols
	if err := a.evalExec(p, vars, dst, stripes, nil); err != nil {
		return Stats{}, err
	}

	// Cost: per-stripe program cost, bank parallelism applied per op mix.
	// The node-at-a-time program is the single cost source for both
	// execution tiers, so word-level and command-accurate runs account
	// identically.
	total, err := a.evalCost(p, stripes)
	if err != nil {
		return Stats{}, err
	}
	a.addTotals(total)
	return total, nil
}

// boundLen returns the length of the first bound program variable, or 0
// when none is bound (evalPrep then reports the missing binding).
func boundLen(p *expr.Program, vars map[string]*BitVector) int {
	for _, name := range p.Vars {
		if v := vars[name]; v != nil {
			return v.Len()
		}
	}
	return 0
}

// checkEvalDst validates an eval destination against the prepared
// bindings of common length n: non-nil, length n, and not aliasing a
// bound variable.
func checkEvalDst(p *expr.Program, dst *BitVector, vars map[string]*BitVector, n int) error {
	if dst == nil {
		return errors.New("elp2im: nil vector")
	}
	if dst.Len() != n {
		return errors.New("elp2im: destination length mismatch")
	}
	for _, name := range p.Vars {
		if vars[name].v == dst.v {
			return fmt.Errorf("elp2im: destination aliases expression variable %q", name)
		}
	}
	return nil
}

// evalPrep validates that every program variable is bound to a vector of
// one common length and checks the subarray row budget of the
// command-accurate fallback. It returns the common length. Shared by
// every eval entry point (the shard compiles once and scatters
// execution).
func (a *Accelerator) evalPrep(p *expr.Program, vars map[string]*BitVector) (int, error) {
	n := -1
	for _, name := range p.Vars {
		v, ok := vars[name]
		if !ok || v == nil {
			return 0, fmt.Errorf("elp2im: expression variable %q not bound", name)
		}
		if n == -1 {
			n = v.Len()
		} else if v.Len() != n {
			return 0, errors.New("elp2im: expression vectors must share one length")
		}
	}
	if n == -1 {
		return 0, errors.New("elp2im: expression has no variables")
	}
	if need := a.rowDemand(p); need > a.cfg.Module.RowsPerSubarray {
		return 0, fmt.Errorf("elp2im: expression needs %d rows per subarray, module has %d",
			need, a.cfg.Module.RowsPerSubarray)
	}
	return n, nil
}

// rowDemand is the subarray row count the command-accurate fallback needs
// for p: one row per variable and per temp slot, plus one staging row
// when the engine consumes XOR/XNOR's A row (ELP2IM two-buffer) and p
// uses such an op, since live operands are then re-staged through it.
func (a *Accelerator) rowDemand(p *expr.Program) int {
	need := len(p.Vars) + p.TempSlots
	if oc, ok := a.eng.(engine.OperandConsumer); ok {
		for _, in := range p.Instrs {
			if oc.ConsumesOperandA(in.Op) {
				return need + 1
			}
		}
	}
	return need
}

// ExprRowDemand reports the subarray row demand of a compiled
// expression's command-accurate fallback against this accelerator's
// module: need is the variable count plus the compiled temp slots (plus
// one when the engine consumes operand rows), have is the module's rows
// per subarray. Serving layers use it to refuse over-deep predicates
// with a client error instead of a mid-execution fault.
func (a *Accelerator) ExprRowDemand(ce *CompiledExpr) (need, have int) {
	return a.rowDemand(ce.prog), a.cfg.Module.RowsPerSubarray
}

// FusionCounters reports the accelerator's eval-tier resolution counts:
// hits is the number of eval operations (expressions, query predicates,
// vertical arithmetic steps) that ran on the word-kernel tier, fallbacks
// the number that ran on the command-accurate model. The pair is the
// serving layer's visibility into whether predicates execute on derived
// kernels; fallbacks stay at zero unless the fast path is disabled, an
// executor wrapper is installed, or the geometry is not word-aligned.
// Eval operations do not tick the acc.fastpath.* counters, which count
// Op and Reduce dispatches.
func (a *Accelerator) FusionCounters() (hits, fallbacks int64) {
	return a.fusionHits.Value(), a.fusionFalls.Value()
}

// evalCost sums the program's per-instruction scheduled costs over
// `stripes` row operations.
func (a *Accelerator) evalCost(prog *expr.Program, stripes int) (Stats, error) {
	var total Stats
	for _, in := range prog.Instrs {
		st, err := a.opCost(in.Op, stripes)
		if err != nil {
			return Stats{}, err
		}
		total.add(st)
	}
	return total, nil
}

// evalRunner is one eval operation's resolved execution strategy. The
// tier — and with it executor and kernel resolution — is fixed once, at
// the operation's start (a synchronous call or a batch submission):
//
//  1. word-kernel tier (kerns != nil): one derived kernel per program
//     instruction, applied stripe by stripe directly on the vectors'
//     words with a pooled slab for the temp slots;
//  2. command-accurate tier: the same program executed through the
//     device model's real command sequences.
//
// A runner is safe for concurrent use across stripes: word-level bodies
// keep per-invocation state only (slabs are pooled), and the command
// tier's shared structures are read-only after resolution.
type evalRunner struct {
	a    *Accelerator
	p    *expr.Program
	vars map[string]*BitVector
	out  *BitVector

	ex    Executor
	kerns []*kernel.Kernel // word-kernel tier, one per instruction
}

// evalResolve picks the operation's execution tier and resolves its
// kernels, counting one eval-tier hit or fallback per operation
// (mirroring opTasks' submission-time resolution contract: SetExecutor
// takes effect for operations started after the call).
func (a *Accelerator) evalResolve(p *expr.Program, vars map[string]*BitVector, out *BitVector) *evalRunner {
	ex, wrapped := a.executor()
	r := &evalRunner{a: a, p: p, vars: vars, out: out, ex: ex}
	if !wrapped && !a.cfg.DisableFastpath && a.cfg.Module.Columns%64 == 0 {
		kerns := make([]*kernel.Kernel, len(p.Instrs))
		ok := true
		for i := range p.Instrs {
			if kerns[i] = a.fastKernel(p.Instrs[i].Op, wrapped); kerns[i] == nil {
				ok = false
				break
			}
		}
		if ok {
			a.fusionHits.Inc()
			r.kerns = kerns
			return r
		}
	}
	a.fusionFalls.Inc()
	return r
}

// slabPools holds the word-kernel tier's temp-slot slabs, shared by every
// accelerator and keyed by size: pool c holds slabs of capacity 2^c
// words. Slabs are handed out unzeroed; every temp slot is written before
// it is read.
var slabPools [64]sync.Pool

// getSlab leases a slab of words (> 0) words from its size class.
func getSlab(words int) *[]uint64 {
	c := bits.Len(uint(words - 1))
	if s, ok := slabPools[c].Get().(*[]uint64); ok {
		*s = (*s)[:words]
		return s
	}
	s := make([]uint64, words, 1<<c)
	return &s
}

// putSlab returns a slab leased by getSlab.
func putSlab(s *[]uint64) {
	slabPools[bits.Len(uint(cap(*s)-1))].Put(s)
}

// bindWords resolves the named variables' word slices once per body, so
// the chunk and stripe loops index a slice instead of the binding map.
func (r *evalRunner) bindWords(names []string) [][]uint64 {
	words := make([][]uint64, len(names))
	for i, name := range names {
		words[i] = r.vars[name].v.Words()
	}
	return words
}

// wordBody returns the word-level per-stripe-range body of the resolved
// tier, or nil when the runner is on the command-accurate tier. The body
// is safe for concurrent invocation over disjoint ranges.
func (r *evalRunner) wordBody() func(sLo, sHi int) {
	if r.kerns == nil {
		return nil
	}
	prog := r.p
	wpr := r.a.cfg.Module.Columns / 64
	ow := r.out.v.Words()
	res := prog.Result()
	vw := r.bindWords(prog.Vars)
	slabWords := prog.TempSlots * wpr
	return func(sLo, sHi int) {
		var slab []uint64
		if slabWords > 0 {
			s := getSlab(slabWords)
			defer putSlab(s)
			slab = *s
		}
		for s := sLo; s < sHi; s++ {
			lo := s * wpr
			if lo >= len(ow) {
				return
			}
			hi := lo + wpr
			if hi > len(ow) {
				hi = len(ow)
			}
			wordsOf := func(ref expr.Ref) []uint64 {
				if ref.Temp {
					return slab[ref.Index*wpr : ref.Index*wpr+(hi-lo)]
				}
				return vw[ref.Index][lo:hi]
			}
			for i, in := range prog.Instrs {
				var bw []uint64
				if !in.Op.Unary() {
					bw = wordsOf(in.B)
				}
				r.kerns[i].Apply(wordsOf(in.Dst), wordsOf(in.A), bw)
			}
			copy(ow[lo:hi], wordsOf(res))
			if hi == len(ow) {
				r.out.v.MaskTail()
			}
		}
	}
}

// cmdBody returns the command-accurate per-stripe body: load the
// variable rows, execute the node-at-a-time program through the device
// model, store the result row.
func (r *evalRunner) cmdBody() func(s int, sub *dram.Subarray, buf *bitvec.Vector) error {
	a, prog := r.a, r.p
	cols := a.cfg.Module.Columns
	varRows := make([]int, len(prog.Vars))
	for i := range varRows {
		varRows[i] = i
	}
	scratchBase := len(prog.Vars)
	return func(s int, sub *dram.Subarray, buf *bitvec.Vector) error {
		for i, name := range prog.Vars {
			loadStripe(buf, r.vars[name].v, s, cols)
			sub.LoadRow(varRows[i], buf)
		}
		resRow, err := prog.Execute(sub, r.ex, varRows, scratchBase)
		if err != nil {
			return err
		}
		storeStripe(r.out.v, sub.RowData(resRow), s, cols)
		return nil
	}
}

// exec runs the resolved tier over the stripes in sub (nil means all of
// [0, stripes)).
func (r *evalRunner) exec(stripes int, sub *stripeSubset) error {
	if body := r.wordBody(); body != nil {
		if sub != nil {
			r.a.fastForEachRuns(sub.runs, body)
		} else {
			r.a.fastForEachRange(stripes, body)
		}
		return nil
	}
	body := r.cmdBody()
	if sub != nil {
		return r.a.forEachStripeList(sub.list, body)
	}
	return r.a.forEachStripe(stripes, body)
}

// evalExec executes the compiled program over the stripes in sub (nil
// means all of [0, stripes)) with no cost accounting — the execution half
// of EvalExprInto, which a Shard scatters across its accelerators.
func (a *Accelerator) evalExec(p *expr.Program, vars map[string]*BitVector, out *BitVector, stripes int, sub *stripeSubset) error {
	return a.evalResolve(p, vars, out).exec(stripes, sub)
}

// evalTasks builds the per-serialization-group pipeline tasks executing
// a resolved eval over the grouped stripes — the batch-submission analogue
// of evalRunner.exec, with the same per-stripe span and locking behavior
// as opTasks. The runner is resolved by the caller at submission time.
func (a *Accelerator) evalTasks(r *evalRunner, groups []stripeRun) []pipeline.Task {
	word := r.wordBody()
	var cmd func(s int, sub *dram.Subarray, buf *bitvec.Vector) error
	if word == nil {
		cmd = r.cmdBody()
	}
	tasks := make([]pipeline.Task, 0, len(groups))
	for _, g := range groups {
		g := g
		tasks = append(tasks, pipeline.Task{Group: g.group, Run: func() error {
			if word != nil {
				// Pure word-level body: no device row state, so no
				// per-subarray lock (see opTasks).
				for _, s := range g.list {
					start := a.obsc.SpanStart()
					word(s, s+1)
					a.stripeSpan(start, s, nil)
				}
				return nil
			}
			buf := a.getBuf()
			defer a.putBuf(buf)
			for _, s := range g.list {
				if err := a.runStripe(g.group, s, buf, cmd); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	return tasks
}
