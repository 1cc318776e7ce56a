// Command perfbench is the repository's end-to-end benchmark for elpd. It
// starts an in-process server.Server on loopback listeners, drives one
// workload against it from this process (at most two callers and two
// connections), checks every response against a host-side oracle, and
// prints the metrics named in BENCHMARK.json as one JSON object on the
// last line of standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same seeded schedule runs once untraced and once with the driver's
// span recording on, then the layer probes run, and the result carries the
// per-layer metrics (see README.md for the definitions and the map of which
// per-layer metric should move which end-to-end one).
//
// A verification mismatch or an unexpected error class (anything but the
// load-shedding 503 and deadline 504 classes) makes the run exit non-zero
// without printing a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its server up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 3

// errMismatch tags a response that disagrees with the host oracle.
var errMismatch = errors.New("verification mismatch")

// errUnexpected tags a response of an error class the workloads never
// provoke (400, 404, 500, malformed frames, transport failures).
var errUnexpected = errors.New("unexpected error")

// workload is one traffic mix: generate builds its seeded inputs and host
// oracle (not timed); start constructs a server, loads the data and warms
// every cache (timed as setup).
type workload interface {
	generate(seed int64) error
	start(h hooks) (instance, error)
}

// instance is one started server plus the workload's client side.
type instance interface {
	// window drives the workload for about d over whole passes of the
	// request pool and returns what it measured.
	window(d time.Duration, traced bool) (*window, error)
	// probe measures the per-layer times on the seeded request pool.
	probe() (layerTimes, error)
	// setupSchedHitFrac is the scheduler-memo hit fraction over this
	// instance's (cold) setup.
	setupSchedHitFrac() float64
	close()
}

// workloads maps the names in BENCHMARK.json to their constructors.
var workloads = map[string]func() workload{
	"ops_wire_open": func() workload { return &opsWorkload{} },
	"query_wire_1m": func() workload { return &queryWorkload{} },
	"mixed_json_rw": func() workload { return &mixedWorkload{} },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name: ops_wire_open, query_wire_1m or mixed_json_rw")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	opt := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := measure(opt, hooks{})
	if err != nil {
		return err
	}
	ctx, err := json.Marshal(map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": *trace,
		"host": map[string]any{
			"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		},
	})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", ctx, line)
	return err
}

// measure sets the workload up setupReps times, runs its window (and, when
// tracing, the traced window and the probes) and assembles the result.
func measure(opt options, h hooks) (*result, error) {
	mk, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	w := mk()
	if err := w.generate(opt.seed); err != nil {
		return nil, err
	}
	var inst instance
	setups := make([]float64, 0, setupReps)
	for range setupReps {
		if inst != nil {
			inst.close()
			inst = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		in, err := w.start(h)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()
	d := time.Duration(opt.seconds * float64(time.Second))
	win, err := inst.window(d, false)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: win.attempted, Failed: win.failed}
	if !opt.trace {
		res.Metrics = endToEnd(win, quantile(setups, 0.5))
		return res, nil
	}
	traced, err := inst.window(d, true)
	if err != nil {
		return nil, err
	}
	lt, err := inst.probe()
	if err != nil {
		return nil, err
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Metrics = perLayer(win, traced, lt, inst.setupSchedHitFrac())
	return res, nil
}

// endToEnd assembles the end-to-end metrics of an untraced window.
func endToEnd(w *window, setupS float64) map[string]metric {
	return map[string]metric{
		"throughput_rps":     {float64(w.completed()) / w.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":     {quantile(w.lat, 0.50) / 1e6, "ms"},
		"latency_p99_ms":     {quantile(w.lat, 0.99) / 1e6, "ms"},
		"setup_s":            {setupS, "s"},
		"rss_peak_mb":        {rssPeakMB(), "MB"},
		"modeled_ns_per_req": {w.modeled.ns, "ns"},
		"modeled_nj_per_req": {w.modeled.nj, "nJ"},
	}
}

// perLayer assembles the per-layer metrics from the untraced window u, the
// traced window t and the layer probes.
func perLayer(u, t *window, lt layerTimes, schedHit float64) map[string]metric {
	d := t.delta
	frac := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	return map[string]metric{
		"failed_frac":                  {ratio(float64(t.failed), float64(t.attempted)), "fraction"},
		"driver.late_p99_ms":           {ms(quantile(t.late, 0.99)), "ms"},
		"driver.in_flight_mean":        {t.inflight, "count"},
		"driver.trace_overhead_frac":   {ratio(quantile(t.lat, 0.5), quantile(u.lat, 0.5)) - 1, "fraction"},
		"wire.rtt_ms":                  {ms(lt.rtt), "ms"},
		"wire.server_frames_per_flush": {ratio(d.wireFrames, float64(d.wireFlushes)), "count"},
		"wire.client_frames_per_flush": {ratio(float64(t.frames), float64(t.flushes)), "count"},
		"wire.codec_ns_per_frame":      {lt.codec, "ns"},
		"server.handler_ms":            {ms(lt.handler), "ms"},
		"server.transport_self_ms":     {ms(lt.rtt - lt.handler), "ms"},
		"server.batch_self_ms":         {ms(lt.batchSelf), "ms"},
		"server.batch.occupancy_mean":  {ratio(float64(d.coalesced), float64(d.flushes)), "count"},
		"server.batch.flushes":         {float64(d.flushes), "count"},
		"server.evalcache.hit_frac":    {frac(d.evalHit, d.evalMiss), "fraction"},
		"server.queue.rejected":        {float64(d.rejected), "count"},
		"server.deadline.expired":      {float64(d.expired), "count"},
		"facade.op_ms":                 {ms(lt.op), "ms"},
		"facade.reduce_ms":             {ms(lt.reduce), "ms"},
		"facade.eval_ms":               {ms(lt.eval), "ms"},
		"facade.arith_ms":              {ms(lt.arith), "ms"},
		"facade.fusion_hit_frac":       {frac(d.fusionHit, d.fusionFall), "fraction"},
		"plan.compile_us":              {lt.compile / 1e3, "us"},
		"kernel.bytes_per_req":         {lt.kernelBytes, "B"},
		"sched.cache_hit_frac":         {schedHit, "fraction"},
		"vertical.slice_us":            {lt.slice / 1e3, "us"},
		"vertical.unslice_us":          {lt.unslice / 1e3, "us"},
	}
}

// layerTimes are the probe results, in ns per request (kernelBytes in
// bytes). A field stays zero when the workload issues no request of that
// kind or the layer is not on its path.
type layerTimes struct {
	rtt, handler, batchSelf float64
	op, reduce, eval, arith float64
	codec, compile          float64
	slice, unslice          float64
	kernelBytes             float64
}

// quantile returns the q-quantile of xs (nearest rank), or 0 for an empty
// slice. xs is left as it was.
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

// rssPeakMB is the process's peak resident set size in MiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
