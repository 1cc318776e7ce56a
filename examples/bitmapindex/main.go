// Bitmap-index analytics (the §6.3.1 workload as a library user would run
// it): track user activity over w weeks with one bitmap per week, then
// answer "how many users were active every week?" and "how many male
// users were active every week?" with in-DRAM AND reductions.
//
// This is the embedded, single-process form. The same workload is served:
// elpd stores bitmap indices as "<namespace>/<index>" vectors and answers
// boolean predicates over them via POST /v1/query (or wire KindQuery),
// compiled to node-at-a-time programs — see docs/CLI.md "Bitmap-index queries",
// docs/ARCHITECTURE.md "Life of a query", and `elpload -query` for the
// load-tested service path.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	elp2im "repro"
)

const (
	users = 1 << 21 // 2M users (scaled from the paper's 16M for a quick run)
	weeks = 8
)

func main() {
	metrics := flag.Bool("metrics", false, "print the accelerator's metrics snapshot after the run")
	tracePath := flag.String("trace", "", "stream Chrome trace_event spans to this file")
	flag.Parse()

	rng := rand.New(rand.NewSource(2026))

	// Synthesize weekly activity: each user is active in a week with
	// probability ~55%; gender split ~50/50.
	weekly := make([]*elp2im.BitVector, weeks)
	for w := range weekly {
		weekly[w] = elp2im.NewBitVector(users)
		for u := 0; u < users; u++ {
			if rng.Intn(100) < 55 {
				weekly[w].SetBit(u, true)
			}
		}
	}
	male := elp2im.RandomBitVector(rng, users)

	acc, err := elp2im.New(func(c *elp2im.Config) { c.PowerConstrained = true })
	if err != nil {
		log.Fatal(err)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		tr := elp2im.NewJSONLTracer(f)
		acc.SetTracer(tr)
		defer func() {
			acc.SetTracer(nil)
			tr.Close()
			f.Close()
			fmt.Printf("wrote %d trace spans to %s\n", tr.Spans(), *tracePath)
		}()
	}
	if *metrics {
		defer func() {
			fmt.Println("\n==== accelerator metrics ====")
			fmt.Print(acc.Snapshot().Text())
		}()
	}

	// Q1: users active every week — AND-reduce the week bitmaps in DRAM.
	everyWeek := elp2im.NewBitVector(users)
	st1, err := acc.Reduce(elp2im.OpAnd, everyWeek, weekly...)
	if err != nil {
		log.Fatal(err)
	}
	q1 := everyWeek.Popcount()

	// Q2: male users active every week — one more in-place AND.
	maleEveryWeek := elp2im.NewBitVector(users)
	st2, err := acc.Op(elp2im.OpAnd, maleEveryWeek, male, everyWeek)
	if err != nil {
		log.Fatal(err)
	}
	q2 := maleEveryWeek.Popcount()

	fmt.Printf("tracked %d users over %d weeks on %s (power-constrained)\n",
		users, weeks, acc.Design())
	fmt.Printf("Q1: active every week:       %8d users  (in-DRAM: %.1f µs, %d row ops)\n",
		q1, st1.LatencyNS/1e3, st1.RowOps)
	fmt.Printf("Q2: male & active every week:%8d users  (in-DRAM: %.1f µs)\n",
		q2, st2.LatencyNS/1e3)

	// Sanity: host-side recount of Q1.
	expect := 0
	for u := 0; u < users; u++ {
		all := true
		for w := 0; w < weeks; w++ {
			if !weekly[w].Bit(u) {
				all = false
				break
			}
		}
		if all {
			expect++
		}
	}
	if expect != q1 {
		log.Fatalf("host recount %d != in-DRAM result %d", expect, q1)
	}
	fmt.Println("host-side recount matches the in-DRAM result ✓")

	// Cost framing vs the CPU baseline of the paper.
	m := elp2im.CPUBaseline()
	cpuNS := m.ReduceAndNS(users, weeks) + m.PopcountNS(users)
	total := st1.LatencyNS + st2.LatencyNS
	fmt.Printf("CPU baseline for Q1 alone: %.1f µs → in-DRAM speedup ~%.1fx on the bitwise part\n",
		cpuNS/1e3, cpuNS/total)
}
