package server

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	elp2im "repro"
	"repro/internal/wire"
)

// poolNamespace is one namespace of the pooled-match suite: its universe
// and the host copy of its indices.
type poolNamespace struct {
	name    string
	bits    int
	indices map[string][]uint64
}

// poolPredicates pair each predicate with its word-level host oracle.
// dense sets most bits (the negation also sets every tail bit before
// masking); sparse sets few, so a stale dense vector would show in it.
var poolPredicates = map[string]struct {
	src  string
	host func(ix map[string][]uint64, w int) uint64
}{
	"dense": {"i0 | i1 | ~i2", func(ix map[string][]uint64, w int) uint64 {
		return ix["i0"][w] | ix["i1"][w] | ^ix["i2"][w]
	}},
	"sparse": {"i0 & i1 & i2", func(ix map[string][]uint64, w int) uint64 {
		return ix["i0"][w] & ix["i1"][w] & ix["i2"][w]
	}},
}

// want returns the host-computed match words of a predicate.
func (ns *poolNamespace) want(pred string) []uint64 {
	p := poolPredicates[pred]
	words := make([]uint64, (ns.bits+63)/64)
	for w := range words {
		words[w] = p.host(ns.indices, w)
	}
	if r := ns.bits % 64; r != 0 {
		words[len(words)-1] &= 1<<uint(r) - 1
	}
	return words
}

// positionsOf lists the set bits of words at or after cursor, up to limit.
func positionsOf(words []uint64, cursor, limit int) []int {
	var out []int
	for w := cursor / 64; w < len(words) && len(out) < limit; w++ {
		x := words[w]
		if w == cursor/64 {
			x &= ^uint64(0) << uint(cursor%64)
		}
		for ; x != 0 && len(out) < limit; x &= x - 1 {
			out = append(out, w*64+bits.TrailingZeros64(x))
		}
	}
	return out
}

// poolQuerier runs one query over either protocol and returns the
// response in the wire client's shape; badRequest reports a 400-class
// reject.
type poolQuerier struct {
	proto  string
	client *http.Client
	url    string
	wc     *wire.Client
}

func (q poolQuerier) query(ns, pred string, mode uint8, cursor, limit int) (res wire.QueryResult, badRequest bool, err error) {
	if q.proto == "wire" {
		res, err = q.wc.Query(0, ns, pred, mode, uint64(cursor), uint32(limit))
		var se *wire.StatusError
		if errors.As(err, &se) && se.Code == wire.StatusBadRequest {
			return res, true, nil
		}
		return res, false, err
	}
	modes := map[uint8]string{wire.QueryCount: "count", wire.QueryBits: "bits", wire.QueryPositions: "positions"}
	var jr QueryResponse
	code, err := rawJSON(q.client, http.MethodPost, q.url+"/v1/query",
		QueryRequest{Namespace: ns, Predicate: pred, Mode: modes[mode], Cursor: cursor, Limit: limit}, &jr)
	if err != nil {
		return res, false, err
	}
	if code == http.StatusBadRequest {
		return res, true, nil
	}
	if code != http.StatusOK {
		return res, false, fmt.Errorf("json query: status %d", code)
	}
	res = wire.QueryResult{Bits: jr.Bits, Count: uint64(jr.Count), NextCursor: uint64(jr.NextCursor)}
	if mode == wire.QueryBits {
		v, err := DecodeBits(jr.Data, jr.Bits)
		if err != nil {
			return res, false, err
		}
		res.Words = v.Words()
	}
	for _, p := range jr.Positions {
		res.Positions = append(res.Positions, uint64(p))
	}
	return res, false, nil
}

// check runs pred over ns in every mode and compares each answer with
// the host oracle.
func (q poolQuerier) check(ns *poolNamespace, pred string) error {
	want := ns.want(pred)
	count := 0
	for _, w := range want {
		count += bits.OnesCount64(w)
	}
	src := poolPredicates[pred].src
	tag := fmt.Sprintf("%s %s %q", q.proto, ns.name, src)

	res, _, err := q.query(ns.name, src, wire.QueryBits, 0, 0)
	if err != nil {
		return fmt.Errorf("%s bits: %w", tag, err)
	}
	if res.Bits != ns.bits || int(res.Count) != count || len(res.Words) != len(want) {
		return fmt.Errorf("%s bits: header (%d bits, %d count, %d words), want (%d, %d, %d)",
			tag, res.Bits, res.Count, len(res.Words), ns.bits, count, len(want))
	}
	for w := range want {
		if res.Words[w] != want[w] {
			return fmt.Errorf("%s bits: word %d = %#x, want %#x", tag, w, res.Words[w], want[w])
		}
	}

	if res, _, err = q.query(ns.name, src, wire.QueryCount, 0, 0); err != nil {
		return fmt.Errorf("%s count: %w", tag, err)
	}
	if int(res.Count) != count || res.Bits != ns.bits {
		return fmt.Errorf("%s count: (%d bits, %d count), want (%d, %d)", tag, res.Bits, res.Count, ns.bits, count)
	}

	cursor, limit := ns.bits/3, 7
	if res, _, err = q.query(ns.name, src, wire.QueryPositions, cursor, limit); err != nil {
		return fmt.Errorf("%s positions: %w", tag, err)
	}
	page := positionsOf(want, cursor, limit)
	if len(res.Positions) != len(page) || int(res.Count) != count {
		return fmt.Errorf("%s positions: %d positions (count %d), want %d (count %d)",
			tag, len(res.Positions), res.Count, len(page), count)
	}
	for i := range page {
		if int(res.Positions[i]) != page[i] {
			return fmt.Errorf("%s positions: [%d] = %d, want %d", tag, i, res.Positions[i], page[i])
		}
	}
	return nil
}

// badCursor sends a positions query whose cursor lies past the universe
// and requires the 400-class reject.
func (q poolQuerier) badCursor(ns *poolNamespace) error {
	_, bad, err := q.query(ns.name, poolPredicates["dense"].src, wire.QueryPositions, ns.bits+1, 0)
	if err != nil {
		return fmt.Errorf("%s %s bad cursor: %w", q.proto, ns.name, err)
	}
	if !bad {
		return fmt.Errorf("%s %s: cursor past the universe was answered, want a 400-class reject", q.proto, ns.name)
	}
	return nil
}

// TestQueryPooledMatchVector pins the pooled match vector: concurrent
// queries over both protocols on one server, across namespaces of
// different universe lengths (one ragged), in count, bits and positions
// modes, each checked against a host oracle. Each caller alternates a
// dense answer, a bad-cursor reject and a sparse answer across the two
// protocols, so a recycled vector's stale words would surface in the
// sparse response. A sequential pass then seeds fresh pools with
// all-ones vectors and requires exact answers while the poison is
// observably consumed.
func TestQueryPooledMatchVector(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, ts := newTestServer(t, func(c *Config) {
				if shards > 1 {
					sh, err := elp2im.NewShard(shards)
					if err != nil {
						t.Fatalf("NewShard: %v", err)
					}
					c.Accelerator, c.Shard = nil, sh
				}
			})
			wc := startWire(t, s)
			rng := rand.New(rand.NewSource(31))
			store := func(name string, bits int) *poolNamespace {
				ns := &poolNamespace{name: name, bits: bits, indices: map[string][]uint64{}}
				for _, idx := range []string{"i0", "i1", "i2"} {
					words := make([]uint64, (bits+63)/64)
					for w := range words {
						words[w] = rng.Uint64() | rng.Uint64() // dense enough that sparse is non-empty
					}
					if r := bits % 64; r != 0 {
						words[len(words)-1] &= 1<<uint(r) - 1
					}
					ns.indices[idx] = words
					if err := wc.Put(indexKey(name, idx), bits, words); err != nil {
						t.Fatalf("PUT %s/%s: %v", name, idx, err)
					}
				}
				return ns
			}
			namespaces := []*poolNamespace{
				store("aligned", 16384),
				store("ragged", 3*8192+77),
				store("small", 4096),
			}
			jq := poolQuerier{proto: "json", client: ts.Client(), url: ts.URL}
			wq := poolQuerier{proto: "wire", wc: wc}

			var wg sync.WaitGroup
			for _, ns := range namespaces {
				for _, order := range [][2]poolQuerier{{jq, wq}, {wq, jq}} {
					wg.Add(1)
					go func(ns *poolNamespace, a, b poolQuerier) {
						defer wg.Done()
						for round := 0; round < 3; round++ {
							for _, step := range []func() error{
								func() error { return a.check(ns, "dense") },
								func() error { return b.badCursor(ns) },
								func() error { return b.check(ns, "sparse") },
							} {
								if err := step(); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}(ns, order[0], order[1])
				}
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Poison pass: per protocol, a namespace of a length no query
			// has used yet, so its pool holds only the all-ones vectors
			// seeded here (the first lands in this P's private slot, the
			// rest where a handler on another P steals them). Its first
			// query must consume one and still answer exactly.
			consumed := 0
			for i, q := range []poolQuerier{jq, wq} {
				ns := store("fresh-"+q.proto, 2*8192+5+i)
				poison := make([]*elp2im.BitVector, 4)
				for j := range poison {
					poison[j] = elp2im.NewBitVector(ns.bits)
					poison[j].Fill(true)
					s.matches.put(poison[j])
				}
				if err := q.check(ns, "sparse"); err != nil {
					t.Fatal(err)
				}
				for _, v := range poison {
					if v.Popcount() != ns.bits {
						consumed++
					}
				}
			}
			if consumed == 0 {
				t.Fatal("no poisoned match vector was reused; the pool is not exercised")
			}
		})
	}
}
