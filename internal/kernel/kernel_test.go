package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ambit"
	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
)

// allOps is every operation the facade dispatches.
var allOps = []engine.Op{
	engine.OpNOT, engine.OpAND, engine.OpOR, engine.OpNAND,
	engine.OpNOR, engine.OpXOR, engine.OpXNOR, engine.OpCOPY,
}

// softOp is the host reference for one engine operation over a word.
func softOp(op engine.Op, a, b uint64) uint64 {
	switch op {
	case engine.OpNOT:
		return ^a
	case engine.OpCOPY:
		return a
	case engine.OpAND:
		return a & b
	case engine.OpOR:
		return a | b
	case engine.OpXOR:
		return a ^ b
	case engine.OpNAND:
		return ^(a & b)
	case engine.OpNOR:
		return ^(a | b)
	case engine.OpXNOR:
		return ^(a ^ b)
	default:
		panic(fmt.Sprintf("softOp: %v", op))
	}
}

// engines returns the derivation targets: each design under every
// reserved-row configuration the facade exposes.
func engines(t *testing.T) map[string]Executor {
	t.Helper()
	one := elpim.DefaultConfig()
	two := elpim.DefaultConfig()
	two.ReservedRows = 2
	ht := elpim.DefaultConfig()
	ht.Mode = elpim.HighThroughput
	return map[string]Executor{
		"elpim-1":  elpim.MustNew(one),
		"elpim-2":  elpim.MustNew(two),
		"elpim-ht": elpim.MustNew(ht),
		"ambit":    ambit.MustNew(ambit.DefaultConfig()),
		"drisa":    drisa.MustNew(drisa.DefaultConfig()),
	}
}

// TestDeriveMatchesGolden derives every op's kernel from every engine and
// checks the compiled function against the host golden model on random
// words.
func TestDeriveMatchesGolden(t *testing.T) {
	mod := dram.Default()
	rng := rand.New(rand.NewSource(7))
	for name, exec := range engines(t) {
		for _, op := range allOps {
			k, err := Derive(exec, op, mod)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, op, err)
			}
			if k.Op() != op || k.Unary() != op.Unary() {
				t.Fatalf("%s/%v: kernel metadata %v", name, op, k)
			}
			const n = 4 * 64
			a := bitvec.Random(rng, n)
			b := bitvec.Random(rng, n)
			want := bitvec.New(n)
			op.Golden(want, a, b)
			dst := make([]uint64, n/64)
			k.Apply(dst, a.Words(), b.Words())
			got := bitvec.FromWords(dst, n)
			if !got.Equal(want) {
				t.Fatalf("%s/%v (%v): kernel disagrees with golden\n got %v\nwant %v",
					name, op, k, got, want)
			}
		}
	}
}

// TestDeriveTables spot-checks the derived truth tables against the
// canonical encodings.
func TestDeriveTables(t *testing.T) {
	e := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	want := map[engine.Op]uint8{
		engine.OpAND:  0b1000,
		engine.OpOR:   0b1110,
		engine.OpXOR:  0b0110,
		engine.OpXNOR: 0b1001,
		engine.OpNAND: 0b0111,
		engine.OpNOR:  0b0001,
		engine.OpNOT:  0b01,
		engine.OpCOPY: 0b10,
	}
	for op, table := range want {
		k, err := Derive(e, op, mod)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if k.Table() != table {
			t.Errorf("%v: table %04b, want %04b", op, k.Table(), table)
		}
	}
}

// brokenExec returns a result that depends on bit position, which no pure
// bitwise kernel can express.
type brokenExec struct{}

func (brokenExec) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	row := bitvec.New(sub.Columns())
	row.SetBit(5, true) // position-dependent: passes a 4-bit probe read
	sub.LoadRow(dst, row)
	return nil
}

// failingExec rejects every operation.
type failingExec struct{}

func (failingExec) Execute(*dram.Subarray, engine.Op, int, int, int) error {
	return errors.New("nope")
}

// TestDeriveRejectsNonBitwise checks the verification pass: an executor
// whose behaviour is not a per-bit function must not compile.
func TestDeriveRejectsNonBitwise(t *testing.T) {
	if _, err := Derive(brokenExec{}, engine.OpAND, dram.Default()); err == nil {
		t.Fatal("expected verification failure for position-dependent executor")
	}
	if _, err := Derive(failingExec{}, engine.OpAND, dram.Default()); err == nil {
		t.Fatal("expected probe failure for erroring executor")
	}
	if _, err := Derive(nil, engine.OpAND, dram.Default()); err == nil {
		t.Fatal("expected error for nil executor")
	}
}

// TestAllBinaryTables exercises every one of the 16 binary and 4 unary
// kernels directly (engines only produce 8 of them) on every length from
// 0 to 9 words — the 4× unrolled body and every tail length — with dst
// separate, aliasing a, and aliasing b (Reduce folds in place). A unary
// kernel is also applied with b == nil, as the facade's fast path calls
// it, on every engine.
func TestAllBinaryTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := func(n int) []uint64 {
		w := make([]uint64, n)
		for i := range w {
			w[i] = rng.Uint64()
		}
		return w
	}
	// check applies k under each aliasing mode and compares every bit
	// with f(a, b).
	check := func(k *Kernel, f func(a, b uint64) uint64) {
		t.Helper()
		for n := 0; n <= 9; n++ {
			for _, alias := range []string{"none", "dst=a", "dst=b"} {
				a, b := words(n), words(n)
				want := make([]uint64, n)
				for w := range want {
					want[w] = f(a[w], b[w])
				}
				var dst []uint64
				switch alias {
				case "none":
					dst = make([]uint64, n)
				case "dst=a":
					dst = a
				case "dst=b":
					dst = b
				}
				k.Apply(dst, a, b)
				for w := range want {
					if dst[w] != want[w] {
						t.Fatalf("%v n=%d %s word %d: got %016x want %016x", k, n, alias, w, dst[w], want[w])
					}
				}
			}
		}
	}
	// bitwise evaluates a truth table one bit position at a time.
	bitwise := func(table uint8, unary bool) func(a, b uint64) uint64 {
		return func(a, b uint64) uint64 {
			var out uint64
			for bit := 0; bit < 64; bit++ {
				ai := a >> uint(bit) & 1
				bi := b >> uint(bit) & 1
				idx := bi<<1 | ai
				if unary {
					idx = ai
				}
				out |= uint64(table) >> idx & 1 << uint(bit)
			}
			return out
		}
	}
	for table := uint8(0); table < 16; table++ {
		check(newKernel(engine.OpAND, table), bitwise(table, false))
	}
	for table := uint8(0); table < 4; table++ {
		check(newKernel(engine.OpNOT, table), bitwise(table, true))
	}

	mod := dram.Default()
	for name, exec := range engines(t) {
		for _, op := range []engine.Op{engine.OpNOT, engine.OpCOPY} {
			k, err := Derive(exec, op, mod)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, op, err)
			}
			for n := 0; n <= 9; n++ {
				a := words(n)
				dst := make([]uint64, n)
				k.Apply(dst, a, nil)
				for w := range dst {
					if want := softOp(op, a[w], 0); dst[w] != want {
						t.Fatalf("%s/%v n=%d word %d: got %016x want %016x", name, op, n, w, dst[w], want)
					}
				}
			}
		}
	}
}

// TestApplyAliasing checks that dst may alias an operand (the reduction
// fold applies kernels in place on the accumulator).
func TestApplyAliasing(t *testing.T) {
	e := elpim.MustNew(elpim.DefaultConfig())
	k, err := Derive(e, engine.OpAND, dram.Default())
	if err != nil {
		t.Fatal(err)
	}
	dst := []uint64{verifyA, verifyB}
	a := []uint64{verifyB, verifyA}
	k.Apply(dst, a, dst)
	if dst[0] != verifyA&verifyB || dst[1] != verifyB&verifyA {
		t.Fatalf("aliased apply wrong: %x", dst)
	}
}

// TestApplyAllocFree is the zero-allocation gate on the compiled loops.
func TestApplyAllocFree(t *testing.T) {
	e := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	for _, op := range allOps {
		k, err := Derive(e, op, mod)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint64, 128)
		a := make([]uint64, 128)
		b := make([]uint64, 128)
		if allocs := testing.AllocsPerRun(100, func() { k.Apply(dst, a, b) }); allocs != 0 {
			t.Errorf("%v: Apply allocates %.1f/op", op, allocs)
		}
	}
}

// TestSetConcurrent hammers one Set from many goroutines; every caller
// must observe the same kernel instance and derivation must happen once.
func TestSetConcurrent(t *testing.T) {
	s := NewSet(elpim.MustNew(elpim.DefaultConfig()), dram.Default())
	var wg sync.WaitGroup
	results := make([]*Kernel, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := s.Kernel(engine.OpXOR)
			if err != nil {
				panic(fmt.Sprintf("derive: %v", err))
			}
			results[i] = k
		}(i)
	}
	wg.Wait()
	for _, k := range results[1:] {
		if k != results[0] {
			t.Fatal("Set returned distinct kernel instances for one op")
		}
	}
}

// TestSetCachesErrors checks that a failed derivation is memoized.
func TestSetCachesErrors(t *testing.T) {
	s := NewSet(failingExec{}, dram.Default())
	_, err1 := s.Kernel(engine.OpAND)
	_, err2 := s.Kernel(engine.OpAND)
	if err1 == nil || err2 == nil {
		t.Fatal("expected cached derivation error")
	}
	if _, err := s.Kernel(engine.Op(99)); err == nil {
		t.Fatal("expected error for out-of-range op")
	}
}
