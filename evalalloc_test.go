//go:build !race

package elp2im

// The race detector's sync.Pool drops pooled items at random, so the
// allocation gate runs only in ordinary builds.

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// evalAllocExprs are the gate's predicates: a six-gate program over
// seven variables and a three-gate one, both holding temps in a pooled
// slab.
var evalAllocExprs = []string{
	"((a | b) & (c | d) & (e | f)) ^ g",
	"(a & b) | ~c",
}

// Allocation gate bounds: objects per eval call, and the bytes per call
// by which 1 Mi bits may exceed 64 Ki bits.
const (
	maxEvalAllocs  = 32
	evalBytesSlack = 256
)

// evalIntoAllocs measures a warm program's Shard.EvalExprInto into a reused
// destination at n bits: the mean allocation count and bytes per call.
func evalIntoAllocs(t *testing.T, sh *Shard, ce *CompiledExpr, n int) (allocs float64, bytes uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	vars := map[string]*BitVector{}
	for _, name := range ce.Vars() {
		vars[name] = RandomBitVector(rng, n)
	}
	dst := NewBitVector(n)
	eval := func() {
		if _, err := sh.EvalExprInto(ce, dst, vars); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm: kernels, placement, slab pools
		eval()
	}
	allocs = testing.AllocsPerRun(50, eval)
	// A call that lands on a P whose slab pool is still empty allocates a
	// slab once; the quietest of several rounds is the steady state.
	const rounds, runs = 5, 50
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			eval()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; r == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}

// TestEvalIntoAllocGate pins the allocation-free eval hot path: a warm
// program evaluated on a 4-shard router into a reused destination allocates
// a small constant number of objects per call, and its bytes per call do
// not grow from 64 Ki to 1 Mi bits — no result vector, temp slab or
// stripe list is allocated per call. GC is held off during the
// measurement so pooled slabs stay pooled.
func TestEvalIntoAllocGate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// 1 Ki-bit rows put 64 stripes (16 placement chunks) in 64 Ki bits,
	// so both lengths fan out to all four shards and differ only in
	// vector length.
	sh, err := NewShard(4, func(c *Config) { c.Module.Columns = 1024 })
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range evalAllocExprs {
		ce, err := CompileExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		smallAllocs, smallBytes := evalIntoAllocs(t, sh, ce, 1<<16)
		bigAllocs, bigBytes := evalIntoAllocs(t, sh, ce, 1<<20)
		t.Logf("%q: 64Ki %.1f allocs %d B/op; 1Mi %.1f allocs %d B/op",
			src, smallAllocs, smallBytes, bigAllocs, bigBytes)
		// The constant covers the per-shard fan-out (runner, bound
		// variable words, body closure, scatter goroutine): about six
		// objects per shard.
		if smallAllocs > maxEvalAllocs || bigAllocs > maxEvalAllocs {
			t.Errorf("%q: %.0f / %.0f allocs per eval at 64Ki / 1Mi bits, want <= %d",
				src, smallAllocs, bigAllocs, maxEvalAllocs)
		}
		// A 1 Mi-bit result vector is 128 KiB and its stripe lists 8 KiB;
		// the slack only absorbs runtime bookkeeping noise.
		if bigBytes > smallBytes+evalBytesSlack {
			t.Errorf("%q: %d B per eval at 1Mi bits vs %d B at 64Ki: allocation grows with vector length",
				src, bigBytes, smallBytes)
		}
	}
}
