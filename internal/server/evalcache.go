package server

import (
	"container/list"
	"sync"

	elp2im "repro"
	"repro/internal/obs"
)

// evalCache is the server-side compiled-program LRU shared by /v1/eval
// and /v1/arith (and their wire twins): expression sources map to their
// *elp2im.CompiledExpr, (op, width) pairs to their *elp2im.CompiledArith.
// Compilation is pure — the compiled object captures no store or
// accelerator state and is reused concurrently by every tier — so a hit
// skips the parse, DAG build and scheduling entirely, which on the
// steady-state serving path (the same handful of expressions and arith
// shapes over and over) turns per-request compilation into a map lookup.
//
// The cache is bounded (Config.EvalCacheSize, default 256 entries) with
// least-recently-used eviction, and it counts hits and misses in the
// server.evalcache.hit / server.evalcache.miss series. Two concurrent
// misses on one key may both compile; the second store wins, which is
// harmless — compiled programs for equal keys are interchangeable.
type evalCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	m      map[string]*list.Element
	hits   *obs.Counter
	misses *obs.Counter
}

// cacheSlot is one LRU entry: the key (so eviction can delete the map
// row) and the compiled value.
type cacheSlot struct {
	key string
	val any
}

// defaultEvalCacheSize is the entry bound when Config.EvalCacheSize is
// left zero.
const defaultEvalCacheSize = 256

// newEvalCache returns an empty LRU bounded to capacity entries.
func newEvalCache(capacity int, hits, misses *obs.Counter) *evalCache {
	if capacity <= 0 {
		capacity = defaultEvalCacheSize
	}
	return &evalCache{
		cap:    capacity,
		ll:     list.New(),
		m:      make(map[string]*list.Element, capacity),
		hits:   hits,
		misses: misses,
	}
}

// lookup returns the cached value for key, marking it most recently
// used; a miss counts and returns false.
func (c *evalCache) lookup(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*cacheSlot).val, true
	}
	c.misses.Inc()
	return nil, false
}

// store inserts (or refreshes) key → val, evicting the least recently
// used entry beyond the capacity bound.
func (c *evalCache) store(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheSlot).val = val
		return
	}
	c.m[key] = c.ll.PushFront(&cacheSlot{key: key, val: val})
	if c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*cacheSlot).key)
	}
}

// len returns the current entry count (tests).
func (c *evalCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Key prefixes keep the two program kinds from colliding: NUL cannot
// appear in an expression keyword position and the arith key is fully
// binary.
const (
	exprKeyPrefix  = "e\x00"
	arithKeyPrefix = "a\x00"
)

// arithKey builds the (op, width) cache key — the operation's complete
// compile shape, since a µProgram depends on nothing else.
func arithKey(op elp2im.ArithOp, width int) string {
	return arithKeyPrefix + string([]byte{byte(op), byte(width)})
}

// cachedExpr returns the compiled form of an expression source, through
// the cache. Compile failures are not cached (they are client errors,
// already cheap).
func (s *Server) cachedExpr(src string) (*elp2im.CompiledExpr, error) {
	key := exprKeyPrefix + src
	if v, ok := s.cache.lookup(key); ok {
		return v.(*elp2im.CompiledExpr), nil
	}
	ce, err := elp2im.CompileExpr(src)
	if err != nil {
		return nil, err
	}
	s.cache.store(key, ce)
	return ce, nil
}

// cachedArith returns the compiled µProgram for (op, width), through the
// cache.
func (s *Server) cachedArith(op elp2im.ArithOp, width int) (*elp2im.CompiledArith, error) {
	key := arithKey(op, width)
	if v, ok := s.cache.lookup(key); ok {
		return v.(*elp2im.CompiledArith), nil
	}
	ca, err := elp2im.CompileArith(op, width)
	if err != nil {
		return nil, err
	}
	s.cache.store(key, ca)
	return ca, nil
}
