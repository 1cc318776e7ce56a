package vertical

import (
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/expr"
)

// Step is one µProgram step: a compiled boolean program whose value is
// written to the named destination slice. Every program variable names
// either an operand slice (x*/y*/m), a previously produced output slice
// (z*), or a scratch slice (t*) written by an earlier step; a step never
// reads its own destination, so in-place execution is safe on every
// dispatch tier.
type Step struct {
	// Dst is the slice the step's value is stored to.
	Dst string
	// Prog is the compiled expression producing the value.
	Prog *expr.Program
}

// Program is a compiled vertical operation: an ordered step list over
// named bit slices. Steps carry data dependencies only through slice
// names, stripe-locally — stripe s of any step reads only stripe s of
// earlier steps — so executors may partition stripes freely as long as
// each stripe observes the steps in order.
type Program struct {
	// Op is the operation the program computes.
	Op Op
	// Width is the operand element width in bits (1..64).
	Width int
	// OutWidth is the number of z output slices produced.
	OutWidth int
	// Temps lists the scratch slice names the executor must provide,
	// sized like the operand slices. Scratch reuse is pre-computed by
	// liveness, so the list stays short even for deep programs.
	Temps []string
	// Steps are the program steps in execution order.
	Steps []Step
}

// Len counts the program's steps.
func (p *Program) Len() int { return len(p.Steps) }

// vsrc is a value source a builder step may read: a virtual SSA id
// produced by an earlier step (vid >= 0) or a named input leaf.
type vsrc struct {
	vid  int
	name string
}

// leaf makes an input-slice source.
func leaf(name string) vsrc { return vsrc{vid: -1, name: name} }

// namer resolves a virtual id to its assigned physical slice name.
type namer func(vid int) string

// node renders the source as an expression leaf under the naming.
func (s vsrc) node(nm namer) *expr.Node {
	if s.vid >= 0 {
		return expr.Var(nm(s.vid))
	}
	return expr.Var(s.name)
}

// uses returns the virtual ids the source depends on.
func (s vsrc) uses() []int {
	if s.vid >= 0 {
		return []int{s.vid}
	}
	return nil
}

// bstep is one un-assembled builder step: the virtual id it defines, the
// ids it reads, and a constructor producing its expression tree once
// physical names are assigned.
type bstep struct {
	out   int
	uses  []int
	build func(nm namer) *expr.Node
}

// builder accumulates steps in SSA form: every step defines one fresh
// virtual id, and steps reference earlier values only through those ids.
// assemble then maps ids to physical slice names with a last-use scan so
// scratch slices are recycled instead of growing with program length
// (popcount at width 64 runs hundreds of steps on a handful of temps).
type builder struct {
	steps []bstep
}

// emit appends a step reading srcs and returns its virtual id.
func (b *builder) emit(build func(nm namer) *expr.Node, srcs ...vsrc) int {
	id := len(b.steps)
	var uses []int
	for _, s := range srcs {
		u := s.uses()
		if len(u) == 0 {
			continue
		}
		dup := false
		for _, seen := range uses {
			if seen == u[0] {
				dup = true
				break
			}
		}
		if !dup {
			uses = append(uses, u[0])
		}
	}
	b.steps = append(b.steps, bstep{out: id, uses: uses, build: build})
	return id
}

// assemble lowers the SSA steps to a Program: virtual ids mapped to
// output names (for ids in outs) or recycled scratch names, each step's
// expression built under that naming and scheduled node-at-a-time.
// Scratch names free only after the step that last reads them, so a
// step's destination never aliases one of its own inputs.
func (b *builder) assemble(op Op, width int, outs map[int]string) (*Program, error) {
	lastUse := make(map[int]int, len(b.steps))
	for i, st := range b.steps {
		for _, u := range st.uses {
			lastUse[u] = i
		}
	}
	names := make(map[int]string, len(b.steps))
	var free []string
	var temps []string
	steps := make([]Step, 0, len(b.steps))
	for i, st := range b.steps {
		dst, isOut := outs[st.out]
		if !isOut {
			if n := len(free); n > 0 {
				dst = free[n-1]
				free = free[:n-1]
			} else {
				dst = "t" + strconv.Itoa(len(temps))
				temps = append(temps, dst)
			}
		}
		names[st.out] = dst
		node := st.build(func(vid int) string { return names[vid] })
		prog, err := expr.Compile(node)
		if err != nil {
			return nil, fmt.Errorf("vertical: %s/%d step %d: %v", op, width, i, err)
		}
		steps = append(steps, Step{Dst: dst, Prog: prog})
		for _, u := range st.uses {
			if lastUse[u] == i {
				if _, uo := outs[u]; !uo {
					free = append(free, names[u])
				}
			}
		}
	}
	return &Program{Op: op, Width: width, OutWidth: op.OutWidth(width), Temps: temps, Steps: steps}, nil
}

// Build synthesizes the µProgram computing op over width-bit elements.
// Width must be in 1..64. Each step's expression is kept narrow (at most
// six distinct slices) so the command-accurate fallback fits small row
// budgets.
func Build(op Op, width int) (*Program, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("vertical: element width %d out of range [1,64]", width)
	}
	b := &builder{}
	outs := make(map[int]string)
	switch op {
	case OpAdd:
		buildAdd(b, outs, width)
	case OpSub:
		buildSub(b, outs, width)
	case OpLT, OpLE, OpLTS, OpLES:
		buildCompare(b, outs, width, op)
	case OpEQ:
		buildEq(b, outs, width)
	case OpPopcount:
		buildPopcount(b, outs, width)
	case OpSelect:
		buildSelect(b, outs, width)
	default:
		return nil, fmt.Errorf("vertical: unknown op %d", int(op))
	}
	return b.assemble(op, width, outs)
}

// xj/yj build operand-slice leaves.
func xj(j int) *expr.Node { return expr.Var(XVar(j)) }

// yj builds the y operand-slice leaf for bit j.
func yj(j int) *expr.Node { return expr.Var(YVar(j)) }

// buildAdd emits the ripple-carry adder: sum_j = x_j ^ y_j ^ c, carry
// c' = (x_j & y_j) | (c & (x_j ^ y_j)), with the final carry dropped
// (modular arithmetic).
func buildAdd(b *builder, outs map[int]string, w int) {
	outs[b.emit(func(nm namer) *expr.Node { return expr.Xor(xj(0), yj(0)) })] = ZVar(0)
	if w == 1 {
		return
	}
	c := b.emit(func(nm namer) *expr.Node { return expr.And(xj(0), yj(0)) })
	for j := 1; j < w; j++ {
		j, cin := j, vsrc{vid: c}
		outs[b.emit(func(nm namer) *expr.Node {
			return expr.Xor(expr.Xor(xj(j), yj(j)), cin.node(nm))
		}, cin)] = ZVar(j)
		if j < w-1 {
			c = b.emit(func(nm namer) *expr.Node {
				return expr.Or(expr.And(xj(j), yj(j)), expr.And(cin.node(nm), expr.Xor(xj(j), yj(j))))
			}, cin)
		}
	}
}

// buildSub emits the borrow-chain subtractor: diff_j = x_j ^ y_j ^ b,
// borrow b' = (~x_j & y_j) | (b & ~(x_j ^ y_j)).
func buildSub(b *builder, outs map[int]string, w int) {
	outs[b.emit(func(nm namer) *expr.Node { return expr.Xor(xj(0), yj(0)) })] = ZVar(0)
	if w == 1 {
		return
	}
	bw := b.emit(func(nm namer) *expr.Node { return expr.And(expr.Not(xj(0)), yj(0)) })
	for j := 1; j < w; j++ {
		j, bin := j, vsrc{vid: bw}
		outs[b.emit(func(nm namer) *expr.Node {
			return expr.Xor(expr.Xor(xj(j), yj(j)), bin.node(nm))
		}, bin)] = ZVar(j)
		if j < w-1 {
			bw = b.emit(func(nm namer) *expr.Node {
				return expr.Or(expr.And(expr.Not(xj(j)), yj(j)), expr.And(bin.node(nm), expr.Not(expr.Xor(xj(j), yj(j)))))
			}, bin)
		}
	}
}

// buildCompare emits the MSB-down lexicographic chain shared by
// less-than and less-or-equal, unsigned and signed. At the sign bit a
// two's-complement compare inverts the roles (a set x sign means x is
// smaller); below it the chains are identical.
func buildCompare(b *builder, outs map[int]string, w int, op Op) {
	signed := op == OpLTS || op == OpLES
	le := op == OpLE || op == OpLES
	msb := w - 1
	lt := b.emit(func(nm namer) *expr.Node {
		if signed {
			return expr.And(xj(msb), expr.Not(yj(msb)))
		}
		return expr.And(expr.Not(xj(msb)), yj(msb))
	})
	eq := -1
	if w > 1 || le {
		eq = b.emit(func(nm namer) *expr.Node { return expr.Not(expr.Xor(xj(msb), yj(msb))) })
	}
	for j := msb - 1; j >= 0; j-- {
		j, ltin, eqin := j, vsrc{vid: lt}, vsrc{vid: eq}
		lt = b.emit(func(nm namer) *expr.Node {
			return expr.Or(ltin.node(nm), expr.And(eqin.node(nm), expr.And(expr.Not(xj(j)), yj(j))))
		}, ltin, eqin)
		if j > 0 || le {
			eq = b.emit(func(nm namer) *expr.Node {
				return expr.And(eqin.node(nm), expr.Not(expr.Xor(xj(j), yj(j))))
			}, eqin)
		}
	}
	if le {
		ltin, eqin := vsrc{vid: lt}, vsrc{vid: eq}
		outs[b.emit(func(nm namer) *expr.Node {
			return expr.Or(ltin.node(nm), eqin.node(nm))
		}, ltin, eqin)] = ZVar(0)
		return
	}
	outs[lt] = ZVar(0)
}

// buildEq emits equality as an XNOR-AND accumulator chain: the first
// step folds three bit positions (six operand slices), every later step
// ANDs two more positions into the accumulator (five slices), and the
// accumulator ping-pongs through two recycled scratch slices regardless
// of width.
func buildEq(b *builder, outs map[int]string, w int) {
	hi := 3
	if hi > w {
		hi = w
	}
	first := hi
	acc := b.emit(func(nm namer) *expr.Node {
		n := expr.Not(expr.Xor(xj(0), yj(0)))
		for j := 1; j < first; j++ {
			n = expr.And(n, expr.Not(expr.Xor(xj(j), yj(j))))
		}
		return n
	})
	for lo := first; lo < w; lo += 2 {
		end := lo + 2
		if end > w {
			end = w
		}
		lo, end, ain := lo, end, vsrc{vid: acc}
		acc = b.emit(func(nm namer) *expr.Node {
			n := ain.node(nm)
			for j := lo; j < end; j++ {
				n = expr.And(n, expr.Not(expr.Xor(xj(j), yj(j))))
			}
			return n
		}, ain)
	}
	outs[acc] = ZVar(0)
}

// buildPopcount emits the bit-serial counter: a half-adder seeds a
// two-bit counter from x0/x1, then every further operand bit increments
// it through a carry chain, the counter growing one slice exactly when
// the maximum count needs another bit. Width 1 degenerates to a single
// identity pass (z0 = x0 & x0).
func buildPopcount(b *builder, outs map[int]string, w int) {
	if w == 1 {
		outs[b.emit(func(nm namer) *expr.Node { return expr.And(xj(0), xj(0)) })] = ZVar(0)
		return
	}
	cnt := []int{
		b.emit(func(nm namer) *expr.Node { return expr.Xor(xj(0), xj(1)) }),
		b.emit(func(nm namer) *expr.Node { return expr.And(xj(0), xj(1)) }),
	}
	for j := 2; j < w; j++ {
		grow := bits.Len(uint(j+1)) > len(cnt)
		carry := leaf(XVar(j))
		next := make([]int, 0, len(cnt)+1)
		for p := 0; p < len(cnt); p++ {
			cp, cin := vsrc{vid: cnt[p]}, carry
			next = append(next, b.emit(func(nm namer) *expr.Node {
				return expr.Xor(cp.node(nm), cin.node(nm))
			}, cp, cin))
			if p < len(cnt)-1 || grow {
				carry = vsrc{vid: b.emit(func(nm namer) *expr.Node {
					return expr.And(cp.node(nm), cin.node(nm))
				}, cp, cin)}
			}
		}
		if grow {
			next = append(next, carry.vid)
		}
		cnt = next
	}
	for p, vid := range cnt {
		outs[vid] = ZVar(p)
	}
}

// buildSelect emits the per-slice blend z_j = (m & x_j) | (~m & y_j).
func buildSelect(b *builder, outs map[int]string, w int) {
	for j := 0; j < w; j++ {
		j := j
		outs[b.emit(func(nm namer) *expr.Node {
			m := expr.Var(MaskVar)
			return expr.Or(expr.And(m, xj(j)), expr.And(expr.Not(m), yj(j)))
		})] = ZVar(j)
	}
}
