package expr

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// scheduleExprs is the corpus of the schedule property tests: deep
// chains, wide unions over eight variables, shared subexpressions, and
// nested negations.
var scheduleExprs = []string{
	"a",
	"~a",
	"a & b",
	"~(a | b)",
	"(a & b) | (a & b)",
	"(a & b) | ((a & b) & c)",
	"(a ^ b) & (b ^ c) | ~a",
	"((a|b) & (c|d) & (e|f)) ^ g",
	"a ^ b ^ c ^ d ^ e ^ f ^ g ^ h",
	"(a & ~b) | (c & ~d) | (e & ~f) | (g & ~h)",
	"((a^b) | (c&d)) & ((e|f) ^ (g&h)) & ~(a&h)",
	"~(~(~(~(~a ^ b) & c) | d) ^ e)",
	"(a&b&c&d&e&f) | (c&d&e&f&g&h)",
}

// schedule builds the optimized DAG of src and schedules it.
func schedule(t *testing.T, src string) *Program {
	t.Helper()
	d, err := BuildDAG(MustParse(src))
	if err != nil {
		t.Fatalf("BuildDAG(%q): %v", src, err)
	}
	return d.Schedule()
}

// runSoft evaluates a program in software over one assignment of its
// variables.
func runSoft(p *Program, env map[string]bool) bool {
	temps := make([]bool, p.TempSlots)
	val := func(r Ref) bool {
		if r.Temp {
			return temps[r.Index]
		}
		return env[p.Vars[r.Index]]
	}
	for _, in := range p.Instrs {
		a := val(in.A)
		var b bool
		if !in.Op.Unary() {
			b = val(in.B)
		}
		var x bool
		switch in.Op {
		case engine.OpNOT:
			x = !a
		case engine.OpCOPY:
			x = a
		case engine.OpAND:
			x = a && b
		case engine.OpOR:
			x = a || b
		case engine.OpXOR:
			x = a != b
		case engine.OpNAND:
			x = !(a && b)
		case engine.OpNOR:
			x = !(a || b)
		case engine.OpXNOR:
			x = a == b
		default:
			panic(fmt.Sprintf("runSoft: op %v", in.Op))
		}
		temps[in.Dst.Index] = x
	}
	return val(p.Result())
}

// TestScheduleEquivalence brute-forces every corpus expression over all
// variable assignments: the scheduled program must agree with the AST
// evaluator, every instruction must write an in-range temp, and no
// instruction's destination may alias one of its own operands (ELP2IM's
// XOR/XNOR re-read their operand rows after writing the destination).
func TestScheduleEquivalence(t *testing.T) {
	for _, src := range scheduleExprs {
		node := MustParse(src)
		p := schedule(t, src)
		for i, in := range p.Instrs {
			if !in.Dst.Temp || in.Dst.Index < 0 || in.Dst.Index >= p.TempSlots {
				t.Fatalf("%q instr %d: destination %v with %d temps", src, i, in.Dst, p.TempSlots)
			}
			if in.Dst == in.A || (!in.Op.Unary() && in.Dst == in.B) {
				t.Fatalf("%q instr %d: %v aliases an operand", src, i, in)
			}
		}
		vars := node.Vars()
		env := map[string]bool{}
		for m := 0; m < 1<<len(vars); m++ {
			for i, v := range vars {
				env[v] = m>>i&1 == 1
			}
			if got, want := runSoft(p, env), node.Eval(env); got != want {
				t.Fatalf("%q env %v: program %v, AST %v\n%s", src, env, got, want, p)
			}
		}
	}
}

// TestScheduleMatchesCompile pins the cost foundation: scheduling the
// optimized DAG yields exactly Compile's program for the same source, so
// the facade's compiled expressions and vertical steps (which schedule
// their DAGs directly) price the instruction stream Compile documents.
func TestScheduleMatchesCompile(t *testing.T) {
	for _, src := range scheduleExprs {
		prog, err := Compile(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if p := schedule(t, src); !reflect.DeepEqual(p, prog) {
			t.Fatalf("%q: schedule differs from Compile\nschedule: %s\ncompile: %s", src, p, prog)
		}
	}
}

// TestScheduleDeterminism pins that scheduling is deterministic: two
// schedules of one source are identical, instruction for instruction
// (compiled-program caches key on the source text alone).
func TestScheduleDeterminism(t *testing.T) {
	for _, src := range scheduleExprs {
		if p1, p2 := schedule(t, src), schedule(t, src); !reflect.DeepEqual(p1, p2) {
			t.Fatalf("%q: nondeterministic schedules\n%s\n%s", src, p1, p2)
		}
	}
}
