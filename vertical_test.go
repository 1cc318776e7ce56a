package elp2im

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/vertical"
)

// TestArithOpMirrorsVertical pins the facade enum to the µProgram
// builder's: same ordering, same mnemonics.
func TestArithOpMirrorsVertical(t *testing.T) {
	names := []string{"add", "sub", "lt", "le", "eq", "lts", "les", "popcount", "select"}
	if len(names) != vertical.NumOps {
		t.Fatalf("op count drifted: %d vs %d", len(names), vertical.NumOps)
	}
	for i, want := range names {
		op := ArithOp(i)
		if op.String() != want {
			t.Fatalf("ArithOp(%d).String() = %q, want %q", i, op.String(), want)
		}
		parsed, err := ParseArithOp(want)
		if err != nil || parsed != op {
			t.Fatalf("ParseArithOp(%q) = %v, %v", want, parsed, err)
		}
	}
	if _, err := ParseArithOp("mul"); !errors.Is(err, ErrBadArith) {
		t.Fatalf("ParseArithOp(mul) err = %v, want ErrBadArith", err)
	}
}

// TestVerticalRoundTrip: the facade transpose wrappers recover the
// width-masked elements.
func TestVerticalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 63, 64, 65, 301} {
		for _, w := range []int{1, 7, 32, 64} {
			elems := make([]uint64, n)
			for i := range elems {
				elems[i] = rng.Uint64()
			}
			v, err := VerticalFromElements(elems, w)
			if err != nil {
				t.Fatal(err)
			}
			back := v.Elements()
			mask := vertical.WidthMask(w)
			for i := range back {
				if back[i] != elems[i]&mask {
					t.Fatalf("n=%d w=%d element %d: %#x, want %#x", n, w, i, back[i], elems[i]&mask)
				}
			}
			if v.Element(n-1) != elems[n-1]&mask {
				t.Fatalf("Element(%d) = %#x, want %#x", n-1, v.Element(n-1), elems[n-1]&mask)
			}
		}
	}
}

// arithCase is one op × width point of the differential sweep.
type arithCase struct {
	op ArithOp
	w  int
}

// arithCases samples every operation across mixed widths.
func arithCases() []arithCase {
	return []arithCase{
		{ArithAdd, 4}, {ArithAdd, 8},
		{ArithSub, 7},
		{ArithLt, 5}, {ArithLe, 8},
		{ArithEq, 9},
		{ArithLts, 6}, {ArithLes, 4},
		{ArithPopcount, 8},
		{ArithSelect, 3},
	}
}

// randomOperands builds random x/y element arrays and a mask vector.
func randomOperands(rng *rand.Rand, n int) (x, y []uint64, m *BitVector) {
	x = make([]uint64, n)
	y = make([]uint64, n)
	for i := range x {
		x[i] = rng.Uint64()
		y[i] = rng.Uint64()
	}
	if n > 2 {
		y[0] = x[0] // force the equal path through the compare chains
	}
	return x, y, RandomBitVector(rng, n)
}

// checkArith verifies one result against the host reference.
func checkArith(t *testing.T, tag string, got *Vertical, op ArithOp, w int, x, y []uint64, m *BitVector) {
	t.Helper()
	want := vertical.Reference(op.internalV(), w, x, y, m.Words())
	if got.Width() != op.OutWidth(w) {
		t.Fatalf("%s: result width %d, want %d", tag, got.Width(), op.OutWidth(w))
	}
	gotE := got.Elements()
	for i := range want {
		if gotE[i] != want[i] {
			t.Fatalf("%s: element %d = %#x, want %#x (x=%#x y=%#x)",
				tag, i, gotE[i], want[i], x[i]&vertical.WidthMask(w), y[i]&vertical.WidthMask(w))
		}
	}
}

// TestArithMatchesReference is the facade's differential harness: every
// op, all three designs, both module geometries, both dispatch tiers
// (word-kernel, command-accurate) on one module and on 4 shards,
// synchronous and batched — bit-identical elements and struct-equal
// Stats throughout.
func TestArithMatchesReference(t *testing.T) {
	designs := []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR}
	rng := rand.New(rand.NewSource(17))
	for _, mod := range diffModules() {
		for _, d := range designs {
			design := func(c *Config) { c.Design = d }
			acc := newAcc(t, mod, design)
			noFast := newAcc(t, mod, design, func(c *Config) { c.DisableFastpath = true })
			sh4, err := NewShard(4, mod, design)
			if err != nil {
				t.Fatal(err)
			}
			sh4NoFast, err := NewShard(4, mod, design, func(c *Config) { c.DisableFastpath = true })
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range arithCases() {
				n := 150 + rng.Intn(150)
				x, y, m := randomOperands(rng, n)
				xv, err := VerticalFromElements(x, tc.w)
				if err != nil {
					t.Fatal(err)
				}
				var yv *Vertical
				if tc.op.Binary() {
					if yv, err = VerticalFromElements(y, tc.w); err != nil {
						t.Fatal(err)
					}
				}
				var mask *BitVector
				if tc.op.Masked() {
					mask = m
				}
				ca, err := CompileArith(tc.op, tc.w)
				if err != nil {
					t.Fatal(err)
				}

				type result struct {
					tag string
					out *Vertical
					st  Stats
				}
				var results []result
				run := func(tag string, out *Vertical, st Stats, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s %s/%d: %v", tag, tc.op, tc.w, err)
					}
					results = append(results, result{tag, out, st})
				}

				out, st, err := acc.ArithProg(ca, xv, yv, mask)
				run("word", out, st, err)
				out, st, err = noFast.ArithProg(ca, xv, yv, mask)
				run("cmd", out, st, err)
				out, st, err = sh4.ArithProg(ca, xv, yv, mask)
				run("shard4", out, st, err)
				out, st, err = sh4NoFast.ArithProg(ca, xv, yv, mask)
				run("shard4cmd", out, st, err)

				b := acc.Batch()
				bOut, _ := b.SubmitArith(ca, xv, yv, mask)
				st, err = b.Wait()
				b.Close()
				run("batch", bOut, st, err)

				sb := sh4.Batch()
				sbOut, _ := sb.SubmitArith(ca, xv, yv, mask)
				st, err = sb.Wait()
				sb.Close()
				run("shardbatch", sbOut, st, err)

				for _, r := range results {
					tag := r.tag + "/" + d.String() + "/" + tc.op.String()
					checkArith(t, tag, r.out, tc.op, tc.w, x, y, m)
					if r.st != results[0].st {
						t.Fatalf("%s: stats %+v differ from %s's %+v", tag, r.st, results[0].tag, results[0].st)
					}
					if r.st.Commands == 0 || r.st.LatencyNS == 0 {
						t.Fatalf("%s: implausible zero stats %+v", tag, r.st)
					}
				}
			}
		}
	}
}

// TestArithValidation: shape and operand mistakes come back tagged
// ErrBadArith without executing.
func TestArithValidation(t *testing.T) {
	acc := newAcc(t, smallModule)
	x8, _ := VerticalFromElements([]uint64{1, 2, 3}, 8)
	x4, _ := VerticalFromElements([]uint64{1, 2, 3}, 4)
	yShort, _ := VerticalFromElements([]uint64{1, 2}, 8)
	mask := NewBitVector(3)
	cases := []struct {
		name string
		call func() error
	}{
		{"nil x", func() error { _, _, err := acc.Arith(ArithAdd, nil, x8, nil); return err }},
		{"width mismatch", func() error { _, _, err := acc.Arith(ArithAdd, x8, x4, nil); return err }},
		{"missing y", func() error { _, _, err := acc.Arith(ArithAdd, x8, nil, nil); return err }},
		{"length mismatch", func() error { _, _, err := acc.Arith(ArithAdd, x8, yShort, nil); return err }},
		{"stray y", func() error { _, _, err := acc.Arith(ArithPopcount, x8, x8, nil); return err }},
		{"missing mask", func() error { _, _, err := acc.Arith(ArithSelect, x8, x8, nil); return err }},
		{"stray mask", func() error { _, _, err := acc.Arith(ArithAdd, x8, x8, mask); return err }},
		{"short mask", func() error { _, _, err := acc.Arith(ArithSelect, x8, x8, NewBitVector(2)); return err }},
		{"bad width", func() error { _, err := CompileArith(ArithAdd, 65); return err }},
		{"bad op", func() error { _, err := CompileArith(ArithOp(99), 8); return err }},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, ErrBadArith) {
			t.Errorf("%s: err = %v, want ErrBadArith", tc.name, err)
		}
	}
	if _, err := NewVertical(0, 8); !errors.Is(err, ErrBadArith) {
		t.Errorf("NewVertical(0, 8): err = %v, want ErrBadArith", err)
	}
	if _, err := NewVertical(3, 0); !errors.Is(err, ErrBadArith) {
		t.Errorf("NewVertical(3, 0): err = %v, want ErrBadArith", err)
	}
}

// TestArithAccountsTotals: the synchronous path folds the modeled cost
// into session totals exactly once.
func TestArithAccountsTotals(t *testing.T) {
	acc := newAcc(t, smallModule)
	x, _ := VerticalFromElements([]uint64{5, 9, 250}, 8)
	y, _ := VerticalFromElements([]uint64{1, 2, 7}, 8)
	_, st, err := acc.Arith(ArithAdd, x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.Totals(); got != st {
		t.Fatalf("totals %+v, want the op's stats %+v", got, st)
	}
}

// TestArithXnorPopcountMAC computes the binary-network MAC on the facade:
// per lane, XNOR each input bit with its weight bit (one eval per bit
// position, written in place into a vertical vector's slices), then
// popcount the agreements — the binary dot product, on every design.
func TestArithXnorPopcountMAC(t *testing.T) {
	const k, n = 7, 300
	rng := rand.New(rand.NewSource(4))
	ce, err := CompileExpr("~(in ^ w)")
	if err != nil {
		t.Fatal(err)
	}
	in := make([]*BitVector, k)
	wt := make([]*BitVector, k)
	agree := make([]uint64, n)
	for j := 0; j < k; j++ {
		in[j], wt[j] = RandomBitVector(rng, n), RandomBitVector(rng, n)
		for i := 0; i < n; i++ {
			if in[j].Bit(i) == wt[j].Bit(i) {
				agree[i]++
			}
		}
	}
	for _, d := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
		acc := newAcc(t, smallModule, func(c *Config) { c.Design = d })
		xnor, err := NewVertical(n, k)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k; j++ {
			if _, err := acc.EvalExprInto(ce, xnor.Slice(j), map[string]*BitVector{"in": in[j], "w": wt[j]}); err != nil {
				t.Fatalf("%v bit %d: %v", d, j, err)
			}
		}
		count, _, err := acc.Arith(ArithPopcount, xnor, nil, nil)
		if err != nil {
			t.Fatalf("%v popcount: %v", d, err)
		}
		for i, got := range count.Elements() {
			if got != agree[i] {
				t.Fatalf("%v lane %d: %d agreements, want %d", d, i, got, agree[i])
			}
		}
	}
}

// TestArithTernaryDotProduct computes a ternary-weight dot product
// acc = Σ w_i · x_i with w_i ∈ {-1, 0, +1} as a chain of vertical adds
// and subtracts (mod 2^8) — the functional substrate of Table 2.
func TestArithTernaryDotProduct(t *testing.T) {
	const width, n = 8, 300
	weights := []int{+1, -1, 0, +1, -1, +1}
	rng := rand.New(rand.NewSource(7))
	acc := newAcc(t, smallModule)
	sum, err := NewVertical(n, width)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, n)
	for _, w := range weights {
		x := make([]uint64, n)
		for i := range x {
			x[i] = rng.Uint64() & 0x1F
		}
		if w == 0 {
			continue
		}
		xv, err := VerticalFromElements(x, width)
		if err != nil {
			t.Fatal(err)
		}
		op := ArithAdd
		if w < 0 {
			op = ArithSub
		}
		if sum, _, err = acc.Arith(op, sum, xv, nil); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		for i := range want {
			if w > 0 {
				want[i] += x[i]
			} else {
				want[i] -= x[i]
			}
		}
	}
	for i, got := range sum.Elements() {
		if w := want[i] & (1<<width - 1); got != w {
			t.Fatalf("lane %d: dot product %d, want %d", i, got, w)
		}
	}
}
