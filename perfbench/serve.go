package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/isa"
	"pimsim/internal/metrics"
	"pimsim/internal/models"
	"pimsim/internal/obs"
	"pimsim/internal/runtime"
	"pimsim/internal/serve"
)

// front is an in-process pimserve on a loopback port and the client
// the harness drives it with.
type front struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// requestTimeout replaces serve's 2 s default request deadline: the
// benchmark measures latency and sets no objective, and a deadline a
// slow host could hit would turn its slowness into failed ops.
const requestTimeout = time.Minute

// recorderSpans bounds the flight recorder of a traced run; it holds
// every span of a traced phase at the rates measured here.
const recorderSpans = 1 << 17

func startFront(cfg serve.Config, traced bool) (*front, error) {
	cfg.RequestTimeout = requestTimeout
	if traced {
		cfg.Tracer = obs.NewTracer(recorderSpans)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close(context.Background())
		return nil, err
	}
	f := &front{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/infer",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// close stops the listener, drains the server and waits for both.
func (f *front) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = f.hs.Shutdown(ctx)
	<-f.served
	f.client.CloseIdleConnections()
	_ = f.srv.Close(ctx)
}

// infer posts one request body and decodes the 200 reply.
func (f *front) infer(body []byte) (*serve.InferResponse, error) {
	resp, err := f.client.Post(f.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var ir serve.InferResponse
	if err := json.Unmarshal(raw, &ir); err != nil {
		return nil, err
	}
	return &ir, nil
}

// serveLedger is what the serve workloads record since mark.
type serveLedger struct {
	mu        sync.Mutex
	since     time.Time
	clientMs  []float64
	batchSum  float64 // device batch sizes seen by request vectors
	batchN    float64
	kernelCyc []float64
	snap      *metrics.Snapshot
}

func (l *serveLedger) mark(f *front) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.since = time.Now()
	l.clientMs, l.kernelCyc = l.clientMs[:0], l.kernelCyc[:0]
	l.batchSum, l.batchN = 0, 0
	l.snap = f.srv.Metrics().Snapshot()
}

// spanLedger adds the flight-recorder view of the requests recorded
// since mark: per request the queue wait, the execution, and the
// frontend time outside both (HTTP decode, admission and reply), plus
// the kernel phases of the exec spans per op. A request's vectors queue
// and execute side by side, so its queue and exec times are its slowest
// vector's. A sequence request has no exec span; its execution runs
// from the end of its queue wait to the end of the request.
func spanLedger(t *obs.Tracer, since time.Time, ops int64, out map[string]float64) {
	type req struct {
		root, firstQ, lastQEnd, lastExEnd time.Time
		rootEnd                           time.Time
		queue, exec                       time.Duration
		hasRoot, hasExec                  bool
	}
	reqs := map[string]*req{}
	var phases [runtime.NumPhases]float64
	for _, s := range t.Snapshot() {
		if s.Start.Before(since) || s.Req == "" {
			continue
		}
		r := reqs[s.Req]
		if r == nil {
			r = &req{}
			reqs[s.Req] = r
		}
		switch s.Name {
		case "request":
			r.root, r.rootEnd, r.hasRoot = s.Start, s.End, true
		case "queue":
			if r.firstQ.IsZero() || s.Start.Before(r.firstQ) {
				r.firstQ = s.Start
			}
			if s.End.After(r.lastQEnd) {
				r.lastQEnd = s.End
			}
			r.queue = max(r.queue, s.Duration())
		case "exec":
			r.hasExec = true
			r.exec = max(r.exec, s.Duration())
			if s.End.After(r.lastExEnd) {
				r.lastExEnd = s.End
			}
			addPhases(&phases, s.Attrs)
		}
	}
	var fe, qu, ex []float64
	for _, r := range reqs {
		if !r.hasRoot || r.firstQ.IsZero() {
			continue
		}
		end := r.lastExEnd
		if !r.hasExec {
			r.exec, end = r.rootEnd.Sub(r.lastQEnd), r.rootEnd
		}
		fe = append(fe, ms(r.rootEnd.Sub(r.root)-end.Sub(r.firstQ)))
		qu = append(qu, ms(r.queue))
		ex = append(ex, ms(r.exec))
	}
	out["serve.frontend_ms_p50"] = median(fe)
	out["serve.queue_ms_p50"] = median(qu)
	out["serve.exec_ms_p50"] = median(ex)
	for p := runtime.KernelPhase(0); p < runtime.NumPhases; p++ {
		out["runtime."+p.String()+"_cycles_per_op"] = phases[p] / float64(ops)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// addPhases adds one exec span's share of its batch's kernel phases.
// The attrs read "attempt=1 batch=4 mode=2/130cy crf=..."; every exec
// span of a batch carries the whole batch's phases, so each adds
// 1/batch of them.
func addPhases(acc *[runtime.NumPhases]float64, attrs string) {
	batch := 1.0
	f := strings.Fields(attrs)
	for _, kv := range f {
		if v, ok := strings.CutPrefix(kv, "batch="); ok {
			if b, err := strconv.Atoi(v); err == nil && b > 0 {
				batch = float64(b)
			}
		}
	}
	for _, kv := range f {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		_, cy, ok := strings.Cut(strings.TrimSuffix(v, "cy"), "/")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(cy, 10, 64)
		if err != nil {
			continue
		}
		for p := runtime.KernelPhase(0); p < runtime.NumPhases; p++ {
			if p.String() == k {
				acc[p] += float64(n) / batch
			}
		}
	}
}

// serveGemv drives serve.New's defaults (2 shards x 4 pCH, parallel
// engine, the three DefaultModels GEMVs resident) with SEC-DED ECC on.
// Two closed-loop callers post one full device batch (4 vectors,
// "inputs" form) per request; requests go round-robin over the models,
// so a round is one request per model.
type serveGemv struct {
	specs []serve.ModelSpec
	grf   int
	pool  []gemvCase // op i runs pool[i%len(pool)]; entry i is model i%len(specs)

	f   *front
	led serveLedger
}

type gemvCase struct {
	spec serve.ModelSpec
	W    []float64 // the weights, decoded for the float64 check
	x    []fp16.Vector
	want []fp16.Vector // blas.RefGemvPIMOrder at the device GRF depth
	body []byte
}

// gemvPoolRounds is how many distinct rounds of inputs a run cycles
// through.
const gemvPoolRounds = 8

func newServeGemv() *serveGemv {
	// serve runs the base PIM-HBM part, whose GRF half holds
	// isa.GRFEntries registers: the accumulation depth of its GEMVs.
	return &serveGemv{specs: serve.DefaultModels(), grf: isa.GRFEntries}
}

func (w *serveGemv) callers() int     { return 2 }
func (w *serveGemv) clients() bool    { return true }
func (w *serveGemv) roundLen() int    { return len(w.specs) }
func (w *serveGemv) tailPct() float64 { return 95 }

// warmOps covers every distinct request once: the float64 bound is
// checked on each served output.
func (w *serveGemv) warmOps() int { return len(w.pool) }

func (w *serveGemv) prepare(rng *rand.Rand) error {
	weights := make([]fp16.Vector, len(w.specs))
	decoded := make([][]float64, len(w.specs))
	for i, s := range w.specs {
		weights[i] = s.Weights()
		decoded[i] = f16s(weights[i])
	}
	const vectors = 4 // one full device batch: one vector per pCH
	for r := 0; r < gemvPoolRounds; r++ {
		for m, spec := range w.specs {
			c := gemvCase{spec: spec, W: decoded[m]}
			in := make([][]float64, vectors)
			for v := 0; v < vectors; v++ {
				x := fp16.NewVector(spec.K)
				for k := range x {
					x[k] = fp16.FromFloat32(float32(rng.NormFloat64()))
				}
				c.x = append(c.x, x)
				c.want = append(c.want, blas.RefGemvPIMOrder(weights[m], spec.M, spec.K, x, w.grf))
				in[v] = f16s(x)
			}
			body, err := json.Marshal(serve.InferRequest{Model: spec.Name, Inputs: in})
			if err != nil {
				return err
			}
			c.body = body
			w.pool = append(w.pool, c)
		}
	}
	return nil
}

func (w *serveGemv) setUp(traced bool) (func(), error) {
	f, err := startFront(serve.Config{ECC: true}, traced)
	if err != nil {
		return nil, err
	}
	w.f = f
	w.led.mark(f)
	return f.close, nil
}

func (w *serveGemv) mark() { w.led.mark(w.f) }

func (w *serveGemv) do(i int, full bool) (float64, error) {
	c := &w.pool[i%len(w.pool)]
	t := time.Now()
	ir, err := w.f.infer(c.body)
	d := time.Since(t)
	if err != nil {
		return 0, err
	}
	if len(ir.Outputs) != len(c.want) || len(ir.KernelCycled) != len(c.want) || len(ir.BatchSizes) != len(c.want) {
		return 0, wrongf("%s: %d outputs for %d inputs", c.spec.Name, len(ir.Outputs), len(c.want))
	}
	var cycles float64
	for v, want := range c.want {
		if err := checkExact(ir.Outputs[v], want); err != nil {
			return 0, fmt.Errorf("%s output %d: %w", c.spec.Name, v, err)
		}
		if full {
			if err := checkGemvBound(ir.Outputs[v], c.W, c.spec.M, c.spec.K, f16s(c.x[v]), w.grf); err != nil {
				return 0, fmt.Errorf("%s output %d: %w", c.spec.Name, v, err)
			}
		}
		// The vector's share of its batch's kernel: the device cycles
		// this request is charged.
		cycles += float64(ir.KernelCycled[v]) / float64(ir.BatchSizes[v])
	}
	w.led.mu.Lock()
	w.led.clientMs = append(w.led.clientMs, ms(d))
	for v := range c.want {
		w.led.batchSum += float64(ir.BatchSizes[v])
		w.led.batchN++
		w.led.kernelCyc = append(w.led.kernelCyc, float64(ir.KernelCycled[v]))
	}
	w.led.mu.Unlock()
	return cycles, nil
}

func (w *serveGemv) ledger(ops int64, out map[string]float64) {
	w.led.mu.Lock()
	defer w.led.mu.Unlock()
	out["serve.client_ms_p50"] = median(w.led.clientMs)
	if w.led.batchN > 0 {
		out["serve.batch_size_mean"] = w.led.batchSum / w.led.batchN
	}
	out["device.kernel_cycles_p50"] = median(w.led.kernelCyc)
	spanLedger(w.f.srv.Tracer(), w.led.since, ops, out)
}

// serveLSTM serves ds2-small with continuous batching and ECC off, no
// GEMV models resident. Two closed-loop callers each post one sequence
// per op.
type serveLSTM struct {
	cfg  models.Config
	pool []lstmSeq

	f   *front
	led serveLedger
}

func newServeLSTM() *serveLSTM { return &serveLSTM{cfg: models.DS2Small()} }

func (w *serveLSTM) callers() int     { return 2 }
func (w *serveLSTM) clients() bool    { return true }
func (w *serveLSTM) roundLen() int    { return seqMaxLen - seqMinLen + 1 }
func (w *serveLSTM) tailPct() float64 { return 75 }
func (w *serveLSTM) warmOps() int     { return 2 }

func (w *serveLSTM) prepare(rng *rand.Rand) error {
	pool, err := makeSeqPool(rng, w.cfg, isa.GRFEntries)
	if err != nil {
		return err
	}
	for i := range pool {
		frames := make([][]float64, len(pool[i].frames))
		for t, x := range pool[i].frames {
			frames[t] = f16s(x)
		}
		if pool[i].body, err = json.Marshal(serve.InferRequest{Model: w.cfg.Name, Frames: frames}); err != nil {
			return err
		}
	}
	w.pool = pool
	return nil
}

func (w *serveLSTM) setUp(traced bool) (func(), error) {
	f, err := startFront(serve.Config{Models: []serve.ModelSpec{}, SeqModels: []models.Config{w.cfg}}, traced)
	if err != nil {
		return nil, err
	}
	w.f = f
	w.led.mark(f)
	return f.close, nil
}

func (w *serveLSTM) mark() { w.led.mark(w.f) }

func (w *serveLSTM) do(i int, _ bool) (float64, error) {
	seq := &w.pool[i%len(w.pool)]
	t := time.Now()
	ir, err := w.f.infer(seq.body)
	d := time.Since(t)
	if err != nil {
		return 0, err
	}
	if ir.Steps != len(seq.want) || len(ir.StepOutputs) != len(seq.want) {
		return 0, wrongf("%d steps for %d frames", ir.Steps, len(seq.want))
	}
	for s, want := range seq.want {
		if err := checkExact(ir.StepOutputs[s], want); err != nil {
			return 0, fmt.Errorf("step %d logits: %w", s, err)
		}
	}
	w.led.mu.Lock()
	w.led.clientMs = append(w.led.clientMs, ms(d))
	w.led.kernelCyc = append(w.led.kernelCyc, float64(ir.DeviceCycles)/float64(ir.Steps))
	w.led.mu.Unlock()
	return float64(ir.DeviceCycles), nil
}

func (w *serveLSTM) ledger(ops int64, out map[string]float64) {
	w.led.mu.Lock()
	defer w.led.mu.Unlock()
	out["serve.client_ms_p50"] = median(w.led.clientMs)
	out["device.kernel_cycles_p50"] = median(w.led.kernelCyc)
	if occ := w.f.srv.Metrics().Snapshot().Diff(w.led.snap).Histograms["serve_seq_occupancy"]; occ.Count > 0 {
		out["serve.seq_occupancy_mean"] = float64(occ.Sum) / float64(occ.Count)
	}
	spanLedger(w.f.srv.Tracer(), w.led.since, ops, out)
}
