package main

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// staller makes the server stop reading requests for d once, at the first
// read after at.
type staller struct {
	mu   sync.Mutex
	at   time.Time
	d    time.Duration
	done bool
}

func (s *staller) arm(at time.Time, d time.Duration) {
	s.mu.Lock()
	s.at, s.d = at, d
	s.mu.Unlock()
}

func (s *staller) maybeStall() {
	s.mu.Lock()
	fire := !s.at.IsZero() && !s.done && time.Now().After(s.at)
	if fire {
		s.done = true
	}
	d := s.d
	s.mu.Unlock()
	if fire {
		time.Sleep(d)
	}
}

type stallListener struct {
	net.Listener
	st *staller
}

func (l stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return stallConn{c, l.st}, nil
}

type stallConn struct {
	net.Conn
	st *staller
}

func (c stallConn) Read(p []byte) (int, error) {
	c.st.maybeStall()
	return c.Conn.Read(p)
}

// TestOpenLoopStallShowsAsLatency stalls the server for a known interval
// in the middle of an open-loop window and checks that every scheduled
// request was still sent, and that the stall shows as latency of the
// requests due during it (timed from their due time, not their send).
func TestOpenLoopStallShowsAsLatency(t *testing.T) {
	const stall = 200 * time.Millisecond
	st := &staller{}
	w := &opsWorkload{}
	if err := w.generate(3); err != nil {
		t.Fatal(err)
	}
	inst, err := w.start(hooks{listener: func(ln net.Listener) net.Listener { return stallListener{ln, st} }})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	in := inst.(*opsInst)
	due := in.schedule(time.Second)
	st.arm(time.Now().Add(300*time.Millisecond), stall)
	win, err := inst.window(time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if win.attempted != int64(len(due)) || win.failed != 0 || int64(len(win.lat)) != win.attempted {
		t.Fatalf("attempted %d, failed %d, timed %d; want all %d scheduled requests sent and answered",
			win.attempted, win.failed, len(win.lat), len(due))
	}
	var slow int
	var worst int64
	for _, l := range win.lat {
		worst = max(worst, l)
		if l >= int64(stall/2) {
			slow++
		}
	}
	// Requests due in the first half of the stall wait at least half of it.
	if want := int(opsRate * stall.Seconds() / 2 / 2); slow < want {
		t.Errorf("%d requests waited ≥ %v, want ≥ %d", slow, stall/2, want)
	}
	if worst < int64(stall*9/10) {
		t.Errorf("worst latency %v, want ≥ %v", time.Duration(worst), stall*9/10)
	}
	if p99 := quantile(win.lat, 0.99); p99 < float64(stall/2) {
		t.Errorf("p99 %v, want ≥ %v", time.Duration(p99), stall/2)
	}
}

// corruptConn flips the lowest bit of the last byte of the target-th
// response frame it reads (counting from 1).
type corruptConn struct {
	net.Conn
	target int
	hdr    []byte
	left   int
	frames int
}

func (c *corruptConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	b := p[:n]
	for i := 0; i < len(b); {
		if c.left == 0 {
			c.hdr = append(c.hdr, b[i])
			i++
			if len(c.hdr) == 4 {
				c.left = int(binary.LittleEndian.Uint32(c.hdr))
				c.hdr = c.hdr[:0]
			}
			continue
		}
		take := min(c.left, len(b)-i)
		c.left -= take
		i += take
		if c.left == 0 {
			c.frames++
			if c.frames == c.target {
				b[i-1] ^= 1
			}
		}
	}
	return n, err
}

// TestCorruptedResponseFailsRun flips one bit of one response in a
// measured window of each wire workload and checks that the run fails
// with a verification mismatch. Consecutive targets land on every request
// kind of the pools.
func TestCorruptedResponseFailsRun(t *testing.T) {
	for _, name := range []string{"ops_wire_open", "query_wire_1m"} {
		t.Run(name, func(t *testing.T) {
			var target atomic.Int64
			h := hooks{conn: func(nc net.Conn) net.Conn {
				if n := target.Load(); n > 0 {
					return &corruptConn{Conn: nc, target: int(n)}
				}
				return nc
			}}
			w := workloads[name]()
			if err := w.generate(5); err != nil {
				t.Fatal(err)
			}
			inst, err := w.start(h)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			if _, err := inst.window(200*time.Millisecond, false); err != nil {
				t.Fatalf("clean window: %v", err)
			}
			for n := int64(100); n < 112; n++ {
				target.Store(n)
				if _, err := inst.window(200*time.Millisecond, false); !errors.Is(err, errMismatch) {
					t.Fatalf("window with response %d corrupted returned %v, want a verification mismatch", n, err)
				}
			}
		})
	}
}

// TestModeledMetricsRepeatForSeed runs every workload twice with one seed
// and once with another: the modeled metrics must be identical for the
// same seed, and the run must report every end-to-end metric.
func TestModeledMetricsRepeatForSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) map[string]metric {
				res, err := measure(options{workload: name, seed: seed, seconds: 0.3}, hooks{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				return res.Metrics
			}
			a, b, c := run(9), run(9), run(10)
			for _, k := range []string{"modeled_ns_per_req", "modeled_nj_per_req"} {
				if a[k] != b[k] {
					t.Errorf("%s: %v then %v for one seed", k, a[k].Value, b[k].Value)
				}
				if a[k] == c[k] {
					t.Errorf("%s: %v for two seeds; the pools should differ", k, a[k].Value)
				}
			}
			for _, k := range []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms", "setup_s", "rss_peak_mb"} {
				if a[k].Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, a[k].Value)
				}
			}
		})
	}
}
