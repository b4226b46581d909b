package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"pimsim/internal/dse"
	"pimsim/internal/hbm"
	"pimsim/internal/models"
	"pimsim/internal/runtime"
	"pimsim/internal/sim"
)

// paperSweep regenerates the paper's evaluation, timing only. One op is
// one sweep on a fresh pair of systems (the System cost caches start
// cold): Table VI at batch 1/2/4, the five Fig. 10 applications, Fig. 11
// and Fig. 12, Fig. 14 (dse.Run), the fence study at batch 1/2/4 and
// sim.RunAblations, in that order. Building the next op's pair is part
// of each op; the first pair is the set-up. The sweep has no inputs to
// draw, so the seed changes nothing: its figures are the paper's.
type paperSweep struct {
	pim, host *sim.System
	traced    bool
	first     map[string]float64

	// Ledger since mark.
	partMs  [numParts]float64
	phases  runtime.PhaseBreakdown
	kernels []float64 // Table VI batch-1 PIM kernel cycles, last sweep
}

func newPaperSweep() *paperSweep { return &paperSweep{} }

func (w *paperSweep) callers() int               { return 1 }
func (w *paperSweep) clients() bool              { return false }
func (w *paperSweep) roundLen() int              { return 1 }
func (w *paperSweep) tailPct() float64           { return 75 }
func (w *paperSweep) warmOps() int               { return 1 }
func (w *paperSweep) prepare(_ *rand.Rand) error { return nil }

func (w *paperSweep) setUp(traced bool) (func(), error) {
	if err := w.newSystems(); err != nil {
		return nil, err
	}
	w.traced = traced
	w.mark()
	return func() { w.pim, w.host = nil, nil }, nil
}

func (w *paperSweep) newSystems() error {
	pim, err := sim.NewPIMSystem(hbm.VariantBase)
	if err != nil {
		return fmt.Errorf("paper-sweep: %w", err)
	}
	w.pim, w.host = pim, sim.NewHostSystem(1)
	return nil
}

func (w *paperSweep) mark() {
	w.partMs = [numParts]float64{}
	w.phases = runtime.PhaseBreakdown{}
}

// sweepPart is one entry point of the evaluation. It adds its figures
// to fig and returns the simulated PIM kernel time it reports, in ns.
type sweepPart struct {
	name string
	run  func(w *paperSweep, fig map[string]float64) (float64, error)
}

const numParts = 6

var sweepParts = [numParts]sweepPart{
	{"sim.micro", (*paperSweep).micro},
	{"sim.apps", (*paperSweep).apps},
	{"sim.energy", (*paperSweep).energy},
	{"dse.fig14", (*paperSweep).fig14},
	{"sim.fences", (*paperSweep).fences},
	{"sim.ablations", (*paperSweep).ablations},
}

func (w *paperSweep) do(_ int, _ bool) (float64, error) {
	fig := map[string]float64{}
	var pimNs float64
	if w.traced {
		w.pim.RT.BeginPhaseObs()
	}
	for p := range sweepParts {
		t := time.Now()
		ns, err := sweepParts[p].run(w, fig)
		w.partMs[p] += float64(time.Since(t)) / 1e6
		if err != nil {
			return 0, fmt.Errorf("%s: %w", sweepParts[p].name, err)
		}
		pimNs += ns
	}
	if w.traced {
		pb := w.pim.RT.TakePhaseObs()
		for p := range pb.Cycles {
			w.phases.Count[p] += pb.Count[p]
			w.phases.Cycles[p] += pb.Cycles[p]
		}
	}
	if err := w.newSystems(); err != nil {
		return 0, err
	}
	if err := checkAnchors(fig); err != nil {
		return 0, err
	}
	if w.first == nil {
		w.first = fig
		fmt.Fprint(os.Stderr, anchorTable(fig))
	} else if err := checkSameFigures(fig, w.first); err != nil {
		return 0, err
	}
	return pimNs * sim.MemClockMHz / 1e3, nil
}

func (w *paperSweep) micro(fig map[string]float64) (float64, error) {
	var ns float64
	w.kernels = w.kernels[:0]
	for _, b := range []int{1, 2, 4} {
		rs, err := sim.RunMicroSuite(w.pim, w.host, b)
		if err != nil {
			return 0, err
		}
		for _, r := range rs {
			fig[fmt.Sprintf("fig10.B%d.%s", b, r.Spec.Name)] = r.Speedup
			fig[fmt.Sprintf("fig10.B%d.%s.miss", b, r.Spec.Name)] = r.HostLLCMiss
			ns += r.PimNs
			if b == 1 {
				w.kernels = append(w.kernels, r.PimNs*sim.MemClockMHz/1e3)
			}
		}
	}
	return ns, nil
}

func (w *paperSweep) apps(fig map[string]float64) (float64, error) {
	var ns float64
	for _, m := range models.All() {
		r, err := sim.EvalApp(w.pim, w.host, m, 1)
		if err != nil {
			return 0, err
		}
		fig["fig10.app."+m.Name] = r.Speedup
		ns += r.PimNs
	}
	return ns, nil
}

func (w *paperSweep) energy(fig map[string]float64) (float64, error) {
	r11, err := sim.RunFig11()
	if err != nil {
		return 0, err
	}
	fig["fig11.power_ratio"] = r11.PowerRatio
	fig["fig11.energy_per_bit_ratio"] = r11.EnergyPerBitRatio
	rows, err := sim.RunFig12(w.pim, w.host)
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		fig["fig12."+r.Workload+".energy_gain"] = r.PimEnergyGain
		fig["fig12."+r.Workload+".over_x4"] = r.PimOverX4
	}
	return 0, nil
}

func (w *paperSweep) fig14(fig map[string]float64) (float64, error) {
	rs, err := dse.Run()
	if err != nil {
		return 0, err
	}
	for _, r := range rs {
		fig["fig14."+r.Variant.String()+".over_base"] = r.GeomeanOverBase
		fig["fig14."+r.Variant.String()+".geomean"] = r.Geomean
	}
	return 0, nil
}

func (w *paperSweep) fences(fig map[string]float64) (float64, error) {
	for _, b := range []int{1, 2, 4} {
		r, err := sim.RunFenceStudy(b)
		if err != nil {
			return 0, err
		}
		fig[fmt.Sprintf("fences.B%d.geomean", b)] = r.Geomean
	}
	return 0, nil
}

func (w *paperSweep) ablations(fig map[string]float64) (float64, error) {
	all, err := sim.RunAblations()
	if err != nil {
		return 0, err
	}
	for name, pts := range all {
		for _, p := range pts {
			fig["ablation."+name+"."+p.Label] = p.Value
		}
	}
	return 0, nil
}

func (w *paperSweep) ledger(ops int64, out map[string]float64) {
	for p, ms := range w.partMs {
		out[sweepParts[p].name+"_ms"] = ms / float64(ops)
	}
	phaseLedger(w.phases, ops, out)
	out["device.kernel_cycles_p50"] = median(w.kernels)
}

// phaseLedger adds the runtime kernel-phase cycles per op.
func phaseLedger(pb runtime.PhaseBreakdown, ops int64, out map[string]float64) {
	for p := runtime.KernelPhase(0); p < runtime.NumPhases; p++ {
		out["runtime."+p.String()+"_cycles_per_op"] = float64(pb.Cycles[p]) / float64(ops)
	}
}
