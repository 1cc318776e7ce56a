package elp2im

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
)

// evalTarget is one evaluator of the shared-program differential: an
// accelerator or a shard router.
type evalTarget struct {
	name string
	into func(ce *CompiledExpr, dst *BitVector, vars map[string]*BitVector) (Stats, error)
	eval func(ce *CompiledExpr, vars map[string]*BitVector) (*BitVector, Stats, error)
}

// TestDifferentialEvalMemo pins the safety of sharing one compiled
// program: one CompiledExpr, evaluated concurrently on the word-kernel
// tier of ELP2IM, Ambit and DRISA accelerators and of a 4-shard router,
// must give results bit-identical to — and Stats struct-equal with — a
// fresh compile evaluated on a fresh command-accurate module
// (DisableFastpath) of the same design. Then wrapping an accelerator that
// has already run the program on word kernels must still force the
// command-accurate tier on the next eval: the injector sees commands and
// a tier fallback is counted.
func TestDifferentialEvalMemo(t *testing.T) {
	const src = "((a | b) & (c | d) & (e | f)) ^ g"
	ce, err := CompileExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	n := 40*128 + 17 // eleven placement chunks: every shard gets stripes
	vars, oracle := evalOracleVars(t, rand.New(rand.NewSource(41)), src, n)

	designs := []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR}
	accs := make([]*Accelerator, len(designs))
	var targets []evalTarget
	for i, d := range designs {
		d := d
		accs[i] = newAcc(t, evalDiffModule, func(c *Config) { c.Design = d })
		targets = append(targets, evalTarget{d.String(), accs[i].EvalExprInto, accs[i].EvalExpr})
	}
	sh, err := NewShard(4, evalDiffModule, func(c *Config) { c.Design = DesignAmbit })
	if err != nil {
		t.Fatal(err)
	}
	targets = append(targets, evalTarget{"Ambit/shards=4", sh.EvalExprInto, sh.EvalExpr})

	// References: a fresh compile on a fresh command-accurate module per
	// design.
	wantStats := map[string]Stats{}
	for i, d := range designs {
		d := d
		fresh, err := CompileExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := newAcc(t, evalDiffModule, func(c *Config) {
			c.Design = d
			c.DisableFastpath = true
		}).EvalExpr(fresh, vars)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(oracle) {
			t.Fatalf("%v fresh compile diverges from the oracle", d)
		}
		wantStats[targets[i].name] = st
	}
	wantStats["Ambit/shards=4"] = wantStats[DesignAmbit.String()]

	const workers, rounds = 3, 4
	var wg sync.WaitGroup
	for _, tg := range targets {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(tg evalTarget) {
				defer wg.Done()
				dst := NewBitVector(n)
				for r := 0; r < rounds; r++ {
					st, err := tg.into(ce, dst, vars)
					if err != nil {
						t.Errorf("%s EvalExprInto: %v", tg.name, err)
						return
					}
					out, st2, err := tg.eval(ce, vars)
					if err != nil {
						t.Errorf("%s EvalExpr: %v", tg.name, err)
						return
					}
					if !dst.Equal(oracle) || !out.Equal(oracle) {
						t.Errorf("%s: shared-program result diverges from the fresh compile", tg.name)
						return
					}
					if st != wantStats[tg.name] || st2 != wantStats[tg.name] {
						t.Errorf("%s: stats %+v / %+v, fresh compile %+v", tg.name, st, st2, wantStats[tg.name])
						return
					}
				}
			}(tg)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	evaluators := append([]*Accelerator{}, accs...)
	for i := 0; i < sh.Shards(); i++ {
		evaluators = append(evaluators, sh.ShardAccelerator(i))
	}
	for _, a := range evaluators {
		if h, f := a.FusionCounters(); h == 0 || f != 0 {
			t.Fatalf("%s: word-tier hits %d, fallbacks %d; the shared program must run on word kernels", a.Design(), h, f)
		}
	}

	// Wrapping after word-tier runs. One stripe: the injector is not safe
	// for concurrent use, and a single-stripe eval runs serially.
	acc := accs[0]
	one, oneWant := evalOracleVars(t, rand.New(rand.NewSource(42)), src, acc.cfg.Module.Columns)
	dst := NewBitVector(acc.cfg.Module.Columns)
	if _, err := acc.EvalExprInto(ce, dst, one); err != nil {
		t.Fatal(err)
	}
	hits, falls := acc.FusionCounters()
	inj, err := fault.New(acc.BaseExecutor(), 1, 43)
	if err != nil {
		t.Fatal(err)
	}
	acc.SetExecutor(inj)
	if _, err := acc.EvalExprInto(ce, dst, one); err != nil {
		t.Fatal(err)
	}
	if inj.Ops == 0 {
		t.Fatal("warm program bypassed the wrapped executor: the injector saw no commands")
	}
	if h, f := acc.FusionCounters(); h != hits || f != falls+1 {
		t.Fatalf("wrapped eval: word-tier hits %d->%d, fallbacks %d->%d; want one fallback", hits, h, falls, f)
	}
	acc.SetExecutor(nil)
	if _, err := acc.EvalExprInto(ce, dst, one); err != nil {
		t.Fatal(err)
	}
	if h, _ := acc.FusionCounters(); h != hits+1 || !dst.Equal(oneWant) {
		t.Fatalf("after unwrapping: word-tier hits %d (want %d), result matches oracle: %v", h, hits+1, dst.Equal(oneWant))
	}
}

// TestEvalExprIntoContract pins EvalExprInto's destination contract,
// mirroring Op's: a nil or wrong-length destination is an error, as is a
// destination that is one of the bound variables, and a reused
// destination's previous contents never leak into the result.
func TestEvalExprIntoContract(t *testing.T) {
	acc := newAcc(t, evalDiffModule)
	sh, err := NewShard(4, evalDiffModule)
	if err != nil {
		t.Fatal(err)
	}
	const src = "(a & b) | ~c"
	ce, err := CompileExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	n := 2*128 + 9
	vars, want := evalOracleVars(t, rand.New(rand.NewSource(44)), src, n)
	for name, into := range map[string]func(*CompiledExpr, *BitVector, map[string]*BitVector) (Stats, error){
		"acc": acc.EvalExprInto, "shard": sh.EvalExprInto,
	} {
		cases := []struct {
			dst  *BitVector
			frag string
		}{
			{nil, "nil vector"},
			{NewBitVector(n + 1), "destination length mismatch"},
			{vars["b"], `aliases expression variable "b"`},
		}
		for _, tc := range cases {
			if _, err := into(ce, tc.dst, vars); err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("%s: error %v, want one containing %q", name, err, tc.frag)
			}
		}
		if _, err := into(ce, NewBitVector(n), map[string]*BitVector{"a": vars["a"]}); err == nil ||
			!strings.Contains(err.Error(), "not bound") {
			t.Errorf("%s: unbound variable error %v", name, err)
		}
		dst := NewBitVector(n)
		dst.Fill(true)
		if _, err := into(ce, dst, vars); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(want) {
			t.Errorf("%s: stale destination contents leaked into the result", name)
		}
	}
	if _, _, err := acc.EvalExpr(ce, map[string]*BitVector{}); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("%q not bound", "a")) {
		t.Errorf("EvalExpr with no bindings: %v", err)
	}
}
