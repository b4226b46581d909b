// Command perfbench is pimsim's end-to-end benchmark. It measures the
// program from outside, on two clocks: host wall time spent producing
// results, and the simulated device cycles those results cost.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One run builds the workload's program state several times (the median
// is setup_s), draws its inputs from the seed and computes the expected
// outputs before anything is timed, warms up on one pass over the inputs
// with every output check, then runs whole rounds of ops for S seconds.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// splits S between an untraced and a traced phase and prints the
// per-layer ledger (CPU profile by layer, flight-recorder spans, kernel
// phases, stopwatches) and the tracing overhead. The last line of stdout
// is the result JSON; the line before it is the run's context. See
// README.md for the workloads, the metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// workload is one named traffic mix over the program.
type workload interface {
	// callers is how many goroutines issue ops concurrently.
	callers() int
	// clients reports whether the callers are clients of a server in
	// the process (their CPU is the harness's) rather than an
	// application calling the library (their CPU is the program's).
	clients() bool
	// roundLen is the number of ops in one round; a run attempts whole
	// rounds only, so every run repeats the same mix of ops.
	roundLen() int
	// tailPct is the latency percentile reported as latency_tail_ms.
	tailPct() float64
	// prepare draws the inputs from rng and computes the expected
	// outputs. It runs once, before any timing.
	prepare(rng *rand.Rand) error
	// warmOps is how many ops the untimed warm-up runs, with the full
	// checks.
	warmOps() int
	// setUp builds the program state the ops run against (the part
	// setup_s times). traced arms the program's existing tracing hooks.
	// It returns the function that releases the state.
	setUp(traced bool) (func(), error)
	// do runs op i and returns the simulated device cycles the op
	// cost. A wrong output is reported as a *wrongOutput error.
	// full adds the checks too costly for the timed phase.
	do(i int, full bool) (float64, error)
	// mark starts the ledger: ledger reports only what the program
	// recorded after the last mark.
	mark()
	// ledger adds the per-layer metrics recorded since mark over ops
	// completed ops.
	ledger(ops int64, out map[string]float64)
}

// wrongOutput marks an op whose output failed a correctness check.
type wrongOutput struct{ msg string }

func (w *wrongOutput) Error() string { return "wrong output: " + w.msg }

func wrongf(format string, args ...any) error {
	return &wrongOutput{msg: fmt.Sprintf(format, args...)}
}

var workloads = map[string]func() workload{
	"serve-gemv":  func() workload { return newServeGemv() },
	"serve-lstm":  func() workload { return newServeLSTM() },
	"graph-lstm":  func() workload { return newGraphLSTM() },
	"paper-sweep": func() workload { return newPaperSweep() },
}

// A run builds the program state at least minSetUps times and until
// setUpSeconds have gone into set-ups (at most maxSetUps); setup_s is
// the median, because one set-up alone varies by nearly 2x here, and a
// set-up of a millisecond needs many samples to give a steady median.
const (
	minSetUps    = 5
	maxSetUps    = 25
	setUpSeconds = 0.25
)

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

// Units of every metric the benchmark prints. endToEnd is printed by
// untraced runs, perLayer by traced runs.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"sim_cycles_per_op", "cycles"},
	{"mem_peak_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"cpu.http_ms_per_op", "ms"},
	{"cpu.serve_ms_per_op", "ms"},
	{"cpu.nn_ms_per_op", "ms"},
	{"cpu.tensor_ms_per_op", "ms"},
	{"cpu.blas_ms_per_op", "ms"},
	{"cpu.runtime_ms_per_op", "ms"},
	{"cpu.memctrl_ms_per_op", "ms"},
	{"cpu.hbm_ms_per_op", "ms"},
	{"cpu.pim_ms_per_op", "ms"},
	{"cpu.fp16_ms_per_op", "ms"},
	{"cpu.ecc_ms_per_op", "ms"},
	{"cpu.sim_ms_per_op", "ms"},
	{"cpu.gc_ms_per_op", "ms"},
	{"cpu.other_ms_per_op", "ms"},
	{"cpu.harness_ms_per_op", "ms"},
	{"serve.client_ms_p50", "ms"},
	{"serve.frontend_ms_p50", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.seq_occupancy_mean", "slots"},
	{"tensor.step_ms_p50", "ms"},
	{"sim.micro_ms", "ms"},
	{"sim.apps_ms", "ms"},
	{"sim.energy_ms", "ms"},
	{"dse.fig14_ms", "ms"},
	{"sim.fences_ms", "ms"},
	{"sim.ablations_ms", "ms"},
	{"alloc.kb_per_op", "KB"},
	{"alloc.objects_per_op", "count"},
	{"device.kernel_cycles_p50", "cycles"},
	{"runtime.mode_cycles_per_op", "cycles"},
	{"runtime.crf_cycles_per_op", "cycles"},
	{"runtime.srf_cycles_per_op", "cycles"},
	{"runtime.grf_cycles_per_op", "cycles"},
	{"runtime.trigger_cycles_per_op", "cycles"},
	{"device.sim_mcycles_per_s", "Mcycles/s"},
	{"trace.overhead_ms_per_op", "ms"},
}

func main() {
	name := flag.String("workload", "", "workload: serve-gemv, serve-lstm, graph-lstm or paper-sweep")
	seed := flag.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 prints the traced per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-gemv|serve-lstm|graph-lstm|paper-sweep, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	res, err := run(mk(), *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run and returns its result.
func run(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	ctx := newRunContext()
	if err := w.prepare(rand.New(rand.NewSource(seed))); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	ctx.logf("inputs and expected outputs ready")
	res := &result{Metrics: map[string]metric{}}
	var acct phase
	var err error
	if traced {
		err = runTraced(w, seconds, res, &acct)
	} else {
		err = runUntraced(w, seconds, res, &acct)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = acct.attempted, acct.failed
	res.Correct = acct.wrong == 0
	ctx.finish(acct)
	return res, nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, seconds float64, res *result, acct *phase) error {
	var setups []float64
	var teardown func()
	for spent := 0.0; len(setups) < maxSetUps && (len(setups) < minSetUps || spent < setUpSeconds); {
		if teardown != nil {
			teardown()
		}
		goruntime.GC()
		t0 := time.Now()
		td, err := labeledSetUp(w, false)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
		teardown = td
	}
	defer teardown()
	logf("set-up: %d builds, median %.4fs", len(setups), median(setups))

	warmUp(w, acct)
	p := runOps(w, w.warmOps(), seconds, false)
	logf("timed phase: %d ops in %.2fs", p.attempted, p.wall)
	acct.add(p)
	if p.ok() == 0 {
		return fmt.Errorf("no op completed: %v", p.firstErr)
	}
	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.name == name {
				res.Metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
		panic("unknown metric " + name)
	}
	set("setup_s", median(setups))
	set("throughput_per_s", float64(p.ok())/p.wall)
	set("latency_p50_ms", median(p.lat))
	set("latency_tail_ms", tailQuantile(p.lat, w.tailPct()))
	set("sim_cycles_per_op", p.cycles/float64(p.ok()))
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	set("mem_peak_mb", mb)
	return nil
}

// runTraced measures the per-layer ledger. The run is split into an
// untraced quarter, a traced half with the CPU profile and the
// program's tracing hooks armed, and a second untraced quarter; the two
// untraced quarters are the baseline the tracing overhead is taken
// against (one on each side cancels drift over the run) and give the
// allocation counts.
func runTraced(w workload, seconds float64, res *result, acct *phase) error {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}

	var base phase
	var allocKB, allocObjs float64
	untraced := func() error {
		teardown, err := labeledSetUp(w, false)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		defer teardown()
		warmUp(w, acct)
		var ms0, ms1 goruntime.MemStats
		goruntime.ReadMemStats(&ms0)
		p := runOps(w, w.warmOps(), seconds/4, false)
		goruntime.ReadMemStats(&ms1)
		logf("untraced phase: %d ops in %.2fs", p.attempted, p.wall)
		acct.add(p)
		if p.ok() == 0 {
			return fmt.Errorf("no op completed: %v", p.firstErr)
		}
		base.attempted += p.attempted
		base.wall += p.wall
		base.cycles += p.cycles
		allocKB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
		allocObjs += float64(ms1.Mallocs - ms0.Mallocs)
		return nil
	}
	if err := untraced(); err != nil {
		return err
	}

	teardown, err := labeledSetUp(w, true)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	warmUp(w, acct)
	w.mark()
	prof, err := startProfile()
	if err != nil {
		teardown()
		return err
	}
	tr := runOps(w, w.warmOps(), seconds/2, false)
	samples, err := prof.stop()
	if err != nil {
		teardown()
		return err
	}
	logf("traced phase: %d ops in %.2fs, %d profile samples", tr.attempted, tr.wall, len(samples))
	acct.add(tr)
	if tr.ok() == 0 {
		teardown()
		return fmt.Errorf("no traced op completed: %v", tr.firstErr)
	}
	for layer, ns := range attribute(samples) {
		out["cpu."+layer+"_ms_per_op"] = float64(ns) / 1e6 / float64(tr.attempted)
	}
	w.ledger(tr.ok(), out)
	teardown()

	if err := untraced(); err != nil {
		return err
	}
	n := float64(base.attempted)
	out["alloc.kb_per_op"] = allocKB / n
	out["alloc.objects_per_op"] = allocObjs / n
	out["device.sim_mcycles_per_s"] = base.cycles / base.wall / 1e6
	out["trace.overhead_ms_per_op"] = 1e3*tr.wall/float64(tr.attempted) - 1e3*base.wall/n

	if len(out) != len(perLayer) {
		return fmt.Errorf("ledger produced %d metrics, want %d", len(out), len(perLayer))
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: out[m.name], Unit: m.unit}
	}
	return nil
}

// labeledSetUp builds the program state under the "program" profiler
// label, which every goroutine the program starts inherits; the
// clients of a served workload run under "harness". The CPU profile
// uses the label to keep the load generator's cost apart from the
// program's.
func labeledSetUp(w workload, traced bool) (teardown func(), err error) {
	pprof.Do(context.Background(), pprof.Labels("side", "program"), func(context.Context) {
		teardown, err = w.setUp(traced)
	})
	return teardown, err
}

// warmUp runs the workload's warm-up ops with the full checks. It is
// not timed, but its ops count like any other.
func warmUp(w workload, acct *phase) {
	p := runOps(w, 0, 0, true)
	acct.add(p)
	logf("warm-up: %d ops in %.2fs", p.attempted, p.wall)
}

// phase is what one stretch of ops produced.
type phase struct {
	attempted, failed, wrong int64
	firstErr                 error
	lat                      []float64 // wall ms of every op that succeeded
	cycles                   float64   // simulated cycles over those ops
	wall                     float64   // seconds
}

func (p phase) ok() int64 { return p.attempted - p.failed - p.wrong }

// runOps runs ops from index start on w.callers() closed-loop callers.
// With seconds == 0 it runs exactly w.warmOps() ops (the warm-up);
// otherwise it stops taking ops at the first round boundary after
// seconds have passed, so the run attempts whole rounds.
func runOps(w workload, start int, seconds float64, full bool) phase {
	var (
		mu      sync.Mutex
		next    = start
		stopped bool
		p       phase
		wg      sync.WaitGroup
	)
	round := w.roundLen()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		done := next-start >= w.warmOps()
		if seconds > 0 {
			done = next > start && (next-start)%round == 0 && !time.Now().Before(deadline)
		}
		if stopped || done {
			stopped = true
			return -1
		}
		next++
		return next - 1
	}
	side := "program"
	if w.clients() {
		side = "harness"
	}
	for range w.callers() {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("side", side), func(context.Context) {
			defer wg.Done()
			var lat []float64
			var cycles float64
			var attempted, failed, wrong int64
			var firstErr error
			for i := take(); i >= 0; i = take() {
				attempted++
				t := time.Now()
				cyc, err := w.do(i, full)
				d := time.Since(t)
				var wo *wrongOutput
				switch {
				case errors.As(err, &wo):
					wrong++
				case err != nil:
					failed++
				default:
					lat = append(lat, float64(d)/1e6)
					cycles += cyc
				}
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("op %d: %w", i, err)
				}
			}
			mu.Lock()
			p.attempted += attempted
			p.failed += failed
			p.wrong += wrong
			p.lat = append(p.lat, lat...)
			p.cycles += cycles
			if p.firstErr == nil {
				p.firstErr = firstErr
			}
			mu.Unlock()
		})
	}
	wg.Wait()
	p.wall = time.Since(t0).Seconds()
	return p
}

// add counts p's ops into the run's totals a.
func (a *phase) add(p phase) {
	a.attempted += p.attempted
	a.failed += p.failed
	a.wrong += p.wrong
	if a.firstErr == nil {
		a.firstErr = p.firstErr
	}
}

// logf reports progress on stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// median returns the exact median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile returns the nearest-rank pct-th percentile of xs: the
// smallest sample with at least pct percent of the samples at or below
// it. It is exact, taken over every sample.
func tailQuantile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(len(s))*pct/100+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := len(s) - 1 - rank; beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples beyond p%g of %d\n", beyond, pct, len(s))
	}
	return s[rank]
}
