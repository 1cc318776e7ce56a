package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	elp2im "repro"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/wire"
)

// hooks let the self-tests wrap the server's listener (to stall it) or the
// client's connections (to corrupt responses). Nil fields are no-ops.
type hooks struct {
	listener func(net.Listener) net.Listener
	conn     func(net.Conn) net.Conn
}

// cost is a modeled DRAM cost as a response reports it: every field of
// the response's stats block.
type cost struct {
	ns, nj, watts               float64
	rowOps, commands, wordlines uint64
}

// costBook holds the modeled cost each pool slot reported during warm-up.
// Costs are a pure function of the request (operation, operand sizes,
// predicate), so every later response must repeat its slot's cost exactly;
// the book is read-only once warm-up has filled it.
type costBook struct {
	exp  []cost
	seen []bool
}

func newCostBook(n int) *costBook {
	return &costBook{exp: make([]cost, n), seen: make([]bool, n)}
}

// record stores slot's cost the first time and checks it afterwards.
func (b *costBook) record(slot int, c cost) error {
	if !b.seen[slot] {
		b.seen[slot], b.exp[slot] = true, c
		return nil
	}
	return b.check(slot, c)
}

// check compares a window response's cost with the warm-up one.
func (b *costBook) check(slot int, c cost) error {
	if !b.seen[slot] || c != b.exp[slot] {
		return fmt.Errorf("%w: slot %d reported modeled cost %+v, warm-up reported %+v", errMismatch, slot, c, b.exp[slot])
	}
	return nil
}

// perReq is the modeled cost of one pass over the pool per request,
// summed in slot order so it repeats bit for bit for a fixed seed.
func (b *costBook) perReq() cost {
	var s cost
	for _, c := range b.exp {
		s.ns += c.ns
		s.nj += c.nj
	}
	n := float64(len(b.exp))
	return cost{ns: s.ns / n, nj: s.nj / n}
}

// counters are the server-side counters a window takes deltas of.
type counters struct {
	totals                elp2im.Stats
	flushes, coalesced    int64
	rejected, expired     int64
	wireFlushes           int64
	wireFrames            float64
	evalHit, evalMiss     int64
	fusionHit, fusionFall int64
}

// readCounters reads Server.Stats and the metrics snapshot.
func readCounters(srv *server.Server, snap elp2im.MetricsSnapshot) counters {
	st := srv.Stats().Server
	frames := snap.Histograms["server.wire.frames_per_flush"]
	return counters{
		totals:      srv.Totals(),
		flushes:     st.BatchesFlushed,
		coalesced:   st.RequestsCoalesced,
		rejected:    st.Rejected,
		expired:     st.DeadlineExpired,
		wireFlushes: frames.Count,
		wireFrames:  frames.Sum,
		evalHit:     snap.Counter("server.evalcache.hit"),
		evalMiss:    snap.Counter("server.evalcache.miss"),
		fusionHit:   st.FusionHits,
		fusionFall:  st.FusionFallbacks,
	}
}

// sub returns c - o field by field.
func (c counters) sub(o counters) counters {
	return counters{
		totals: elp2im.Stats{
			LatencyNS: c.totals.LatencyNS - o.totals.LatencyNS,
			EnergyNJ:  c.totals.EnergyNJ - o.totals.EnergyNJ,
		},
		flushes:     c.flushes - o.flushes,
		coalesced:   c.coalesced - o.coalesced,
		rejected:    c.rejected - o.rejected,
		expired:     c.expired - o.expired,
		wireFlushes: c.wireFlushes - o.wireFlushes,
		wireFrames:  c.wireFrames - o.wireFrames,
		evalHit:     c.evalHit - o.evalHit,
		evalMiss:    c.evalMiss - o.evalMiss,
		fusionHit:   c.fusionHit - o.fusionHit,
		fusionFall:  c.fusionFall - o.fusionFall,
	}
}

// serverEnv is an in-process server with its accelerator(s).
type serverEnv struct {
	srv      *server.Server
	acc      *elp2im.Accelerator // single-module server, else nil
	sh       *elp2im.Shard       // sharded server, else nil
	schedHit float64             // scheduler-memo hit fraction over setup
	schedAt  sched.CacheStats    // scheduler-memo counters when setup began
}

// newServerEnv builds a server over one accelerator (shards == 1) or a
// shard router, after dropping the process-wide scheduler memo so every
// setup starts cold.
func newServerEnv(shards int) (*serverEnv, error) {
	sched.ResetCache()
	e := &serverEnv{schedAt: sched.GlobalCacheStats()}
	cfg := server.Config{}
	var err error
	if shards == 1 {
		if e.acc, err = elp2im.New(); err != nil {
			return nil, err
		}
		cfg.Accelerator = e.acc
	} else {
		if e.sh, err = elp2im.NewShard(shards); err != nil {
			return nil, err
		}
		cfg.Shard = e.sh
	}
	if e.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// setupDone closes the setup interval of the scheduler-memo hit fraction.
func (e *serverEnv) setupDone() {
	now := sched.GlobalCacheStats()
	hits, misses := now.Hits-e.schedAt.Hits, now.Misses-e.schedAt.Misses
	if hits+misses > 0 {
		e.schedHit = float64(hits) / float64(hits+misses)
	}
}

func (e *serverEnv) setupSchedHitFrac() float64 { return e.schedHit }

// counters reads the server's counters now.
func (e *serverEnv) counters() counters {
	if e.sh != nil {
		return readCounters(e.srv, e.sh.Snapshot())
	}
	return readCounters(e.srv, e.acc.Snapshot())
}

// facadeAcc is the accelerator the facade probes call directly: the
// single module, or shard 0 of a router (every shard has the same
// configuration, and the server executes op, reduce and arith requests on
// one shard's accelerator).
func (e *serverEnv) facadeAcc() *elp2im.Accelerator {
	if e.sh != nil {
		return e.sh.ShardAccelerator(0)
	}
	return e.acc
}

// crossCheck compares the server's modeled totals over a window with the
// responses' costs (passes × the pool's pass cost). The two sum the same
// per-request costs in different orders, so they agree to rounding.
func crossCheck(delta elp2im.Stats, book *costBook, completed int64) error {
	per := book.perReq()
	want := cost{ns: per.ns * float64(completed), nj: per.nj * float64(completed)}
	near := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= 1e-9*max(a, b, 1)
	}
	if !near(delta.LatencyNS, want.ns) || !near(delta.EnergyNJ, want.nj) {
		return fmt.Errorf("%w: server modeled totals over the window (%g ns, %g nJ) differ from the responses (%g ns, %g nJ)",
			errMismatch, delta.LatencyNS, delta.EnergyNJ, want.ns, want.nj)
	}
	return nil
}

// wireEnv serves elpwire on a loopback TCP listener.
type wireEnv struct {
	*serverEnv
	ln         net.Listener
	served     chan error
	h          hooks
	pipe       *pipeListener // in-memory listener of the handler probe, lazily
	pipeServed chan error
}

func startWireEnv(shards int, h hooks) (*wireEnv, error) {
	se, err := newServerEnv(shards)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		se.srv.Drain()
		return nil, err
	}
	e := &wireEnv{serverEnv: se, ln: ln, served: make(chan error, 1), h: h}
	sl := ln
	if h.listener != nil {
		sl = h.listener(ln)
	}
	go func() { e.served <- e.srv.ServeWire(sl) }()
	return e, nil
}

// dial opens a client connection to the TCP listener.
func (e *wireEnv) dial() (net.Conn, error) {
	nc, err := net.Dial("tcp", e.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("%w: dial: %v", errUnexpected, err)
	}
	if e.h.conn != nil {
		nc = e.h.conn(nc)
	}
	return nc, nil
}

// dialPipe opens an in-memory connection to the same server (no TCP).
func (e *wireEnv) dialPipe() (net.Conn, error) {
	if e.pipe == nil {
		e.pipe, e.pipeServed = newPipeListener(), make(chan error, 1)
		go func() { e.pipeServed <- e.srv.ServeWire(e.pipe) }()
	}
	return e.pipe.dial()
}

func (e *wireEnv) close() {
	_ = e.ln.Close()
	if e.pipe != nil {
		_ = e.pipe.Close()
		<-e.pipeServed
	}
	e.srv.Drain()
	e.srv.CloseWireConns()
	<-e.served
}

// pipeListener is a net.Listener whose connections are in-memory pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// httpEnv serves the HTTP/JSON API on a loopback TCP listener.
type httpEnv struct {
	*serverEnv
	ln     net.Listener
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startHTTPEnv(shards, conns int) (*httpEnv, error) {
	se, err := newServerEnv(shards)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		se.srv.Drain()
		return nil, err
	}
	e := &httpEnv{
		serverEnv: se, ln: ln, served: make(chan error, 1),
		hs:   &http.Server{Handler: se.srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
		}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

func (e *httpEnv) close() {
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx)
	e.srv.Drain()
	<-e.served
}

// frameConn is a client connection read one response frame at a time.
type frameConn struct {
	nc  net.Conn
	br  *bufio.Reader
	out []byte
	in  []byte
	id  uint64
}

func newFrameConn(nc net.Conn) *frameConn {
	return &frameConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
}

// read reads one response frame: its id, status and payload (which
// aliases the connection's buffer until the next read).
func (c *frameConn) read() (id uint64, status uint8, payload []byte, err error) {
	var hdr [13]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, 0, nil, fmt.Errorf("%w: read response: %v", errUnexpected, err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:])) - 9
	if n < 0 || n > wire.DefaultMaxFrame {
		return 0, 0, nil, fmt.Errorf("%w: response frame length %d", errUnexpected, n+9)
	}
	if cap(c.in) < n {
		c.in = make([]byte, n)
	}
	c.in = c.in[:n]
	if _, err := io.ReadFull(c.br, c.in); err != nil {
		return 0, 0, nil, fmt.Errorf("%w: read response: %v", errUnexpected, err)
	}
	return binary.LittleEndian.Uint64(hdr[4:]), hdr[12], c.in, nil
}

// pipelined sends the requests of slots in chunks of up to depth frames
// and hands each response to handle.
func (c *frameConn) pipelined(slots []int, depth int, build func(b []byte, slot int, id uint64) []byte,
	handle func(slot int, status uint8, payload []byte) error) error {
	for lo := 0; lo < len(slots); lo += depth {
		hi := min(lo+depth, len(slots))
		base := c.id + 1
		c.out = c.out[:0]
		for _, s := range slots[lo:hi] {
			c.id++
			c.out = build(c.out, s, c.id)
		}
		if _, err := c.nc.Write(c.out); err != nil {
			return fmt.Errorf("%w: write: %v", errUnexpected, err)
		}
		for range hi - lo {
			id, status, payload, err := c.read()
			if err != nil {
				return err
			}
			k := int(id - base)
			if id < base || k >= hi-lo {
				return fmt.Errorf("%w: response id %d outside the chunk", errUnexpected, id)
			}
			if err := handle(slots[lo+k], status, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// statusErr classifies a non-OK wire status: the load-shedding classes
// (saturated, deadline) count as failed requests, anything else ends the
// run.
func statusErr(status uint8, payload []byte) (failed bool, err error) {
	switch status {
	case wire.StatusSaturated, wire.StatusDeadline:
		return true, nil
	}
	return false, fmt.Errorf("%w: %v", errUnexpected, wire.DecodeErrorPayload(status, payload))
}

// clientErr classifies an error of a wire.Client call the same way: a
// load-shedding status counts as a failed request, anything else (another
// status, a transport or decoding failure) ends the run.
func clientErr(err error) (failed bool, _ error) {
	var se *wire.StatusError
	if errors.As(err, &se) && (se.Code == wire.StatusSaturated || se.Code == wire.StatusDeadline) {
		return true, nil
	}
	return false, fmt.Errorf("%w: %v", errUnexpected, err)
}
