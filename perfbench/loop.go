package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// window is what one measured window recorded.
type window struct {
	lat       []int64 // latency of each completed request, ns
	late      []int64 // traced: how late each request was sent, ns
	inflight  float64 // traced: mean requests in flight when one was sent
	attempted int64
	failed    int64 // 503 and 504 responses
	elapsed   time.Duration
	flushes   int64 // client write syscalls (wire workloads)
	frames    int64 // request frames those syscalls carried
	delta     counters
	modeled   cost // modeled cost per request (see costBook.perReq)
}

func (w *window) completed() int64 { return w.attempted - w.failed }

// handler consumes one response. failed reports a load-shedding failure
// (503/504); an error ends the run.
type handler func(slot int, status uint8, payload []byte) (failed bool, err error)

// closedLoop runs callers goroutines that each issue one request at a time
// through do, over whole passes of an n-slot pool: once d has elapsed the
// pass in progress is completed and no new one starts, so every slot runs
// equally often. do returns when the response arrived (latency is timed
// from the send to then, before verification).
func closedLoop(callers, n int, d time.Duration, traced bool, do func(caller, slot int) (recv time.Time, failed bool, err error)) (*window, error) {
	var (
		mu       sync.Mutex
		next     int
		stop     = -1
		inFlight atomic.Int64
	)
	start := time.Now()
	deadline := start.Add(d)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop < 0 && !time.Now().Before(deadline) {
			stop = (next + n - 1) / n * n
		}
		if stop >= 0 && next >= stop {
			return 0, false
		}
		next++
		return next - 1, true
	}
	abort := func() {
		mu.Lock()
		stop = next
		mu.Unlock()
	}
	type part struct {
		lat, late         []int64
		attempted, failed int64
		inflight          float64
		err               error
	}
	parts := make([]part, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			last := time.Now()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				t0 := time.Now()
				if traced {
					p.late = append(p.late, int64(t0.Sub(last)))
					p.inflight += float64(inFlight.Add(1))
				}
				recv, failed, err := do(c, i%n)
				if traced {
					inFlight.Add(-1)
				}
				p.attempted++
				if err != nil {
					p.err = err
					abort()
					return
				}
				if failed {
					p.failed++
				} else {
					p.lat = append(p.lat, int64(recv.Sub(t0)))
				}
				last = time.Now()
			}
		}(&parts[c])
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	var inflight float64
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		w.lat = append(w.lat, p.lat...)
		w.late = append(w.late, p.late...)
		w.attempted += p.attempted
		w.failed += p.failed
		inflight += p.inflight
	}
	if w.attempted > 0 {
		w.inflight = inflight / float64(w.attempted)
	}
	return w, nil
}

// maxWriteFrames bounds the frames the open-loop writer coalesces into one
// write when it finds several requests due.
const maxWriteFrames = 256

// openLoop sends requests over one connection at their due times (ns
// offsets from the start; request k is pool slot k mod n) from a writer
// goroutine, reads the responses on the calling goroutine, and times each
// request from its due time. Nothing is ever skipped: a writer that falls
// behind sends every overdue request in one write, and the delay shows as
// latency of those requests.
func openLoop(c *frameConn, due []int64, n int, traced bool, build func(b []byte, slot int, id uint64) []byte, handle handler) (*window, error) {
	total := len(due)
	base := c.id + 1
	c.id += uint64(total)
	w := &window{lat: make([]int64, 0, total), attempted: int64(total)}
	if traced {
		w.late = make([]int64, total)
	}
	var recvd atomic.Int64
	start := time.Now()
	if err := c.nc.SetReadDeadline(start.Add(time.Duration(due[total-1]) + time.Minute)); err != nil {
		return nil, fmt.Errorf("%w: %v", errUnexpected, err)
	}
	werr := make(chan error, 1)
	go func() {
		var buf []byte
		for i := 0; i < total; {
			now := int64(time.Since(start))
			if due[i] > now {
				time.Sleep(time.Duration(due[i] - now))
				continue
			}
			buf = buf[:0]
			j := i
			for j < total && due[j] <= now && j-i < maxWriteFrames {
				buf = build(buf, j%n, base+uint64(j))
				j++
			}
			if traced {
				at := int64(time.Since(start))
				r := recvd.Load()
				for k := i; k < j; k++ {
					w.late[k] = at - due[k]
					w.inflight += float64(int64(k) - r + 1)
				}
			}
			if _, err := c.nc.Write(buf); err != nil {
				_ = c.nc.Close()
				werr <- fmt.Errorf("%w: write: %v", errUnexpected, err)
				return
			}
			w.flushes++
			w.frames += int64(j - i)
			i = j
		}
		werr <- nil
	}()
	var rerr error
	for got := 0; got < total; got++ {
		id, status, payload, err := c.read()
		at := int64(time.Since(start))
		if err == nil && (id < base || id >= base+uint64(total)) {
			err = fmt.Errorf("%w: response id %d outside the schedule", errUnexpected, id)
		}
		if err != nil {
			rerr = err
			_ = c.nc.Close()
			break
		}
		k := int(id - base)
		failed, err := handle(k%n, status, payload)
		if err != nil {
			rerr = err
			_ = c.nc.Close()
			break
		}
		if failed {
			w.failed++
		} else {
			w.lat = append(w.lat, at-due[k])
		}
		recvd.Add(1)
	}
	w.elapsed = time.Since(start)
	if err := <-werr; rerr == nil {
		rerr = err
	}
	if rerr != nil {
		return nil, rerr
	}
	if traced {
		w.inflight /= float64(total)
	}
	return w, c.nc.SetReadDeadline(time.Time{})
}
