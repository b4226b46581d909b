package main

import (
	"fmt"
	"math/rand"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/hbm"
	"pimsim/internal/models"
	"pimsim/internal/nn"
	"pimsim/internal/runtime"
	"pimsim/internal/tensor"
)

// LSTM inputs shared by serve-lstm and graph-lstm: ds2-small, one op per
// sequence. A round is nine sequences, one of each length 8..16 in a
// seeded order, so every run attempts the same frame count per round.
const (
	seqMinLen   = 8
	seqMaxLen   = 16
	seqPoolRnds = 1 // distinct rounds of inputs; ops cycle through them
)

type lstmSeq struct {
	frames []fp16.Vector
	want   []fp16.Vector // nn.Plan.HostOracle logits, one per step
	body   []byte        // the /v1/infer request (serve-lstm only)
}

// makeSeqPool draws seqPoolRnds rounds of ds2-small sequences and their
// expected logits at GRF depth grf.
func makeSeqPool(rng *rand.Rand, cfg models.Config, grf int) ([]lstmSeq, error) {
	w, err := nn.GenWeights(cfg)
	if err != nil {
		return nil, err
	}
	plan, err := nn.Compile(w)
	if err != nil {
		return nil, err
	}
	var pool []lstmSeq
	for r := 0; r < seqPoolRnds; r++ {
		for _, i := range rng.Perm(seqMaxLen - seqMinLen + 1) {
			frames := make([]fp16.Vector, seqMinLen+i)
			for t := range frames {
				frames[t] = fp16.NewVector(cfg.Input)
				for j := range frames[t] {
					frames[t][j] = fp16.FromFloat32(float32(rng.NormFloat64() * 0.5))
				}
			}
			want, err := plan.HostOracle(frames, grf)
			if err != nil {
				return nil, err
			}
			pool = append(pool, lstmSeq{frames: frames, want: want})
		}
	}
	return pool, nil
}

// graphLSTM runs ds2-small as an unmodified application: the graph is
// built from tensor.BuildLSTMStep and run step by step through
// tensor.NewPIMSession on a functional 4-pCH device, one caller. Every
// MatVec goes to PIM through blas.PimGemv, which lays the weights out on
// every call. Each sequence runs on a freshly built device, so its
// simulated cycles depend on its length alone and not on where the
// device's refresh schedule stood; building the next op's device is
// part of each op, and the first is part of the set-up.
type graphLSTM struct {
	cfg  models.Config
	pool []lstmSeq

	// Program state from setUp.
	rt        *runtime.Runtime
	sess      *tensor.Session
	threshold int // session offload threshold, bytes
	feeds     map[string]*tensor.Tensor
	outs      []*tensor.Node // logits, then h and c of every layer
	layers    int
	traced    bool

	// Ledger since mark.
	stepMs     []float64
	stepCycles []float64
	phases     runtime.PhaseBreakdown
}

func newGraphLSTM() *graphLSTM { return &graphLSTM{cfg: models.DS2Small()} }

func (w *graphLSTM) callers() int     { return 1 }
func (w *graphLSTM) clients() bool    { return false }
func (w *graphLSTM) roundLen() int    { return seqMaxLen - seqMinLen + 1 }
func (w *graphLSTM) tailPct() float64 { return 75 }
func (w *graphLSTM) warmOps() int     { return 1 }

func (w *graphLSTM) prepare(rng *rand.Rand) error {
	rt, err := newDevice()
	if err != nil {
		return err
	}
	w.pool, err = makeSeqPool(rng, w.cfg, blas.GRFDepth(rt))
	return err
}

// newDevice builds the functional 4-pCH PIM-HBM device the graph runs on.
func newDevice() (*runtime.Runtime, error) {
	hcfg := hbm.PIMHBMConfig(1200)
	hcfg.PseudoChannels = 4
	hcfg.Functional = true
	dev, err := hbm.NewDevice(hcfg)
	if err != nil {
		return nil, err
	}
	return runtime.New([]*hbm.Device{dev})
}

func (w *graphLSTM) setUp(traced bool) (func(), error) {
	rt, err := newDevice()
	if err != nil {
		return nil, err
	}
	weights, err := nn.GenWeights(w.cfg)
	if err != nil {
		return nil, err
	}
	g := &tensor.Graph{}
	x := g.Input("x")
	cur := x
	var hOuts, cOuts []*tensor.Node
	for l, lw := range weights.Layers {
		h, c := g.Input(fmt.Sprintf("h%d", l)), g.Input(fmt.Sprintf("c%d", l))
		hOut, cOut, err := tensor.BuildLSTMStep(g, fmt.Sprintf("l%d", l),
			&tensor.Tensor{Shape: []int{4 * lw.H, lw.X}, Data: lw.Wx},
			&tensor.Tensor{Shape: []int{4 * lw.H, lw.H}, Data: lw.Wh},
			&tensor.Tensor{Shape: []int{4 * lw.H}, Data: lw.B},
			cur, h, c)
		if err != nil {
			return nil, err
		}
		hOuts, cOuts = append(hOuts, hOut), append(cOuts, cOut)
		cur = hOut
	}
	H := w.cfg.Hidden[len(w.cfg.Hidden)-1]
	logits := g.MatVec("out", &tensor.Tensor{Shape: []int{w.cfg.Output, H}, Data: weights.WOut}, cur)

	// The preprocessor offloads ops whose operands reach the threshold.
	// Set it to the smallest MatVec's weight footprint, so every GEMV
	// runs on PIM (as internal/nn places them) while the gate math,
	// whose vectors are far smaller, stays on the host.
	w.threshold = 2 * w.cfg.Output * H
	for _, lw := range weights.Layers {
		if gate := 2 * 4 * lw.H; gate >= w.threshold {
			return nil, fmt.Errorf("graph-lstm: gate vectors (%d B) would offload with the GEMVs", gate)
		}
	}

	w.rt, w.layers, w.traced = rt, len(weights.Layers), traced
	w.newSession()
	w.outs = append([]*tensor.Node{logits}, interleave(hOuts, cOuts)...)
	w.feeds = map[string]*tensor.Tensor{}
	w.mark()
	return func() { w.rt, w.sess = nil, nil }, nil
}

// newSession attaches a PIM session to w.rt.
func (w *graphLSTM) newSession() {
	w.sess = tensor.NewPIMSession(w.rt)
	w.sess.OffloadThreshold = w.threshold
}

func interleave(a, b []*tensor.Node) []*tensor.Node {
	out := make([]*tensor.Node, 0, 2*len(a))
	for i := range a {
		out = append(out, a[i], b[i])
	}
	return out
}

func (w *graphLSTM) mark() {
	w.stepMs, w.stepCycles = w.stepMs[:0], w.stepCycles[:0]
	w.phases = runtime.PhaseBreakdown{}
}

func (w *graphLSTM) do(i int, _ bool) (float64, error) {
	seq := &w.pool[i%len(w.pool)]
	for l := 0; l < w.layers; l++ {
		H := w.cfg.Hidden[l]
		w.feeds[fmt.Sprintf("h%d", l)] = &tensor.Tensor{Shape: []int{H}, Data: fp16.NewVector(H)}
		w.feeds[fmt.Sprintf("c%d", l)] = &tensor.Tensor{Shape: []int{H}, Data: fp16.NewVector(H)}
	}
	var cycles int64
	for t, x := range seq.frames {
		w.feeds["x"] = &tensor.Tensor{Shape: []int{len(x)}, Data: x}
		if w.traced {
			w.rt.BeginPhaseObs()
		}
		c0, t0 := w.rt.MaxNow(), time.Now()
		res, err := w.sess.Run(w.feeds, w.outs...)
		d, c := time.Since(t0), w.rt.MaxNow()-c0
		if err != nil {
			return 0, fmt.Errorf("step %d: %w", t, err)
		}
		if w.traced {
			pb := w.rt.TakePhaseObs()
			for p := range pb.Cycles {
				w.phases.Count[p] += pb.Count[p]
				w.phases.Cycles[p] += pb.Cycles[p]
			}
		}
		w.stepMs = append(w.stepMs, float64(d)/1e6)
		w.stepCycles = append(w.stepCycles, float64(c))
		cycles += c
		if err := checkExact(f16s(res[0].Data), seq.want[t]); err != nil {
			return 0, fmt.Errorf("step %d logits: %w", t, err)
		}
		for l := 0; l < w.layers; l++ {
			w.feeds[fmt.Sprintf("h%d", l)] = res[1+2*l]
			w.feeds[fmt.Sprintf("c%d", l)] = res[2+2*l]
		}
	}
	rt, err := newDevice()
	if err != nil {
		return 0, err
	}
	w.rt = rt
	w.newSession()
	return float64(cycles), nil
}

func (w *graphLSTM) ledger(ops int64, out map[string]float64) {
	out["tensor.step_ms_p50"] = median(w.stepMs)
	out["device.kernel_cycles_p50"] = median(w.stepCycles)
	phaseLedger(w.phases, ops, out)
}
