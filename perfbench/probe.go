package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/wire"
)

// probeBudget is how long each layer probe repeats whole passes of the
// pool (at least one pass).
const probeBudget = 300 * time.Millisecond

// timeSlots times fn on every slot of an n-slot pool in order, one at a
// time, repeating whole passes until probeBudget has elapsed, and returns
// each slot's mean time in ns.
func timeSlots(n int, fn func(slot int) error) ([]float64, error) {
	sum := make([]float64, n)
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start) < probeBudget {
		for s := range n {
			t0 := time.Now()
			if err := fn(s); err != nil {
				return nil, err
			}
			sum[s] += float64(time.Since(t0))
		}
		passes++
	}
	for s := range sum {
		sum[s] /= float64(passes)
	}
	return sum, nil
}

// meanWhere is the mean of xs over the slots keep selects (0 if none).
func meanWhere(xs []float64, keep func(slot int) bool) float64 {
	var sum float64
	n := 0
	for s, x := range xs {
		if keep(s) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// all selects every slot.
func all(int) bool { return true }

// roundTrip sends one slot's request on a sequential connection and
// hands its response to handle.
func (c *frameConn) roundTrip(slot int, build func(b []byte, slot int, id uint64) []byte, handle handler) error {
	c.id++
	c.out = build(c.out[:0], slot, c.id)
	if _, err := c.nc.Write(c.out); err != nil {
		return fmt.Errorf("%w: write: %v", errUnexpected, err)
	}
	id, status, payload, err := c.read()
	if err != nil {
		return err
	}
	if id != c.id {
		return fmt.Errorf("%w: response id %d, want %d", errUnexpected, id, c.id)
	}
	failed, err := handle(slot, status, payload)
	if err == nil && failed {
		err = fmt.Errorf("%w: status %s in a sequential probe", errUnexpected, wire.StatusName(status))
	}
	return err
}

// wireProbe times the pool's requests one at a time over a TCP connection
// (rtt) and over an in-memory connection to the same server (handler).
func wireProbe(e *wireEnv, c *frameConn, n int, build func(b []byte, slot int, id uint64) []byte, handle handler) (rtt, hdl []float64, err error) {
	rtt, err = timeSlots(n, func(s int) error { return c.roundTrip(s, build, handle) })
	if err != nil {
		return nil, nil, err
	}
	pc, err := e.dialPipe()
	if err != nil {
		return nil, nil, err
	}
	defer pc.Close()
	p := newFrameConn(pc)
	hdl, err = timeSlots(n, func(s int) error { return p.roundTrip(s, build, handle) })
	return rtt, hdl, err
}

// codecNS is the mean time to decode one of the pool's request frames with
// wire.DecodeRequest and encode it back with wire.EncodeRequest.
func codecNS(n int, build func(b []byte, slot int, id uint64) []byte) (float64, error) {
	frames := make([][]byte, n)
	var req wire.Request
	for s := range frames {
		frames[s] = build(nil, s, uint64(s+1))
		if err := wire.DecodeRequest(frames[s][4:], &req, nil); err != nil {
			return 0, fmt.Errorf("%w: decode own frame: %v", errUnexpected, err)
		}
		if !bytes.Equal(wire.EncodeRequest(nil, &req), frames[s]) {
			return 0, fmt.Errorf("%w: frame of slot %d does not round-trip", errMismatch, s)
		}
	}
	var out []byte
	count := 0
	start := time.Now()
	for count == 0 || time.Since(start) < probeBudget {
		for _, f := range frames {
			_ = wire.DecodeRequest(f[4:], &req, nil)
			out = wire.EncodeRequest(out[:0], &req)
		}
		count += n
	}
	return float64(time.Since(start)) / float64(count), nil
}

// repeatNS is the mean time of fn over as many calls as fit in
// probeBudget (at least one).
func repeatNS(fn func() error) (float64, error) {
	count := 0
	start := time.Now()
	for count == 0 || time.Since(start) < probeBudget {
		if err := fn(); err != nil {
			return 0, err
		}
		count++
	}
	return float64(time.Since(start)) / float64(count), nil
}
