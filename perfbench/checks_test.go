package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime/pprof"
	"testing"
	"time"

	"pimsim/internal/blas"
	"pimsim/internal/fp16"
	"pimsim/internal/isa"
	"pimsim/internal/serve"
)

func isWrong(err error) bool {
	var wo *wrongOutput
	return errors.As(err, &wo)
}

// The benchmark's binary16 decoder must agree with internal/fp16 on
// every encoding, or the float64 check would test the decoder instead
// of the device.
func TestF16DecoderAgreesEverywhere(t *testing.T) {
	for b := 0; b < 1<<16; b++ {
		h := fp16.F16(b)
		got, want := f16(uint16(b)), float64(h.Float32())
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("%#04x: got %v, want NaN", b, got)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%#04x: got %v, want %v", b, got, want)
		}
	}
	for b, want := range map[uint16]float64{0x3c00: 1, 0xc000: -2, 0x0001: 0x1p-24, 0x7bff: 65504, 0x0400: 0x1p-14} {
		if got := f16(b); got != want {
			t.Errorf("%#04x: got %v, want %v", b, got, want)
		}
	}
}

// gemvCaseFor computes one device-order GEMV of the micro model.
func gemvCaseFor(t *testing.T) (spec serve.ModelSpec, x, y fp16.Vector) {
	t.Helper()
	for _, s := range serve.DefaultModels() {
		if s.M == 256 && s.K == 256 {
			spec = s
		}
	}
	if spec.M == 0 {
		t.Fatal("no 256x256 model in serve.DefaultModels")
	}
	rng := rand.New(rand.NewSource(5))
	x = fp16.NewVector(spec.K)
	for i := range x {
		x[i] = fp16.FromFloat32(float32(rng.NormFloat64()))
	}
	return spec, x, blas.RefGemvPIMOrder(spec.Weights(), spec.M, spec.K, x, isa.GRFEntries)
}

func TestCheckExactRejectsEveryFlippedBit(t *testing.T) {
	_, _, y := gemvCaseFor(t)
	got := f16s(y)
	if err := checkExact(got, y); err != nil {
		t.Fatalf("exact output rejected: %v", err)
	}
	for bit := 0; bit < 16; bit++ {
		bad := append(fp16.Vector(nil), y...)
		bad[7] ^= fp16.F16(1 << bit)
		if err := checkExact(f16s(bad), y); !isWrong(err) {
			t.Errorf("bit %d flipped: check returned %v", bit, err)
		}
	}
}

func TestGemvBoundHoldsAndRejects(t *testing.T) {
	spec, x, y := gemvCaseFor(t)
	W, xf := f16s(spec.Weights()), f16s(x)
	got := f16s(y)
	if err := checkGemvBound(got, W, spec.M, spec.K, xf, isa.GRFEntries); err != nil {
		t.Fatalf("device-order GEMV outside its own bound: %v", err)
	}
	// The bound must be tight enough to see a sign error on the
	// largest output and a flipped top exponent bit on any output.
	big := 0
	for i := range y {
		if math.Abs(got[i]) > math.Abs(got[big]) {
			big = i
		}
	}
	for _, flip := range []struct {
		i   int
		bit uint
	}{{big, 15}, {3, 14}, {big, 13}} {
		bad := append([]float64(nil), got...)
		bad[flip.i] = f16(uint16(y[flip.i]) ^ 1<<flip.bit)
		if err := checkGemvBound(bad, W, spec.M, spec.K, xf, isa.GRFEntries); !isWrong(err) {
			t.Errorf("output %d bit %d flipped: check returned %v", flip.i, flip.bit, err)
		}
	}
}

func TestAnchorsRejectPerturbedFigure(t *testing.T) {
	fig := map[string]float64{}
	for _, a := range paperAnchors {
		fig[a.figure] = a.paper
	}
	if err := checkAnchors(fig); err != nil {
		t.Fatalf("paper values rejected: %v", err)
	}
	for _, a := range paperAnchors {
		for _, sign := range []float64{-1, 1} {
			bad := map[string]float64{}
			for k, v := range fig {
				bad[k] = v
			}
			bad[a.figure] = a.paper * (1 + sign*(a.tol+0.01))
			if err := checkAnchors(bad); !isWrong(err) {
				t.Errorf("%s perturbed by %+.0f%%: check returned %v", a.figure, 100*sign*(a.tol+0.01), err)
			}
		}
	}
}

// The workloads' own ops must reject a corrupted expected output: the
// checks are wired in, not only defined.
func TestServeGemvOpRejectsFlippedBit(t *testing.T) {
	w := newServeGemv()
	if err := w.prepare(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	teardown, err := w.setUp(false)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	if _, err := w.do(0, true); err != nil {
		t.Fatalf("clean op: %v", err)
	}
	w.pool[0].want[2][5] ^= 1
	if _, err := w.do(0, false); !isWrong(err) {
		t.Fatalf("corrupted expectation: op returned %v", err)
	}
}

func TestServeLSTMOpRejectsFlippedBit(t *testing.T) {
	w := newServeLSTM()
	if err := w.prepare(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	teardown, err := w.setUp(false)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	if _, err := w.do(0, true); err != nil {
		t.Fatalf("clean op: %v", err)
	}
	last := len(w.pool[0].want) - 1
	w.pool[0].want[last][3] ^= 1 << 9
	if _, err := w.do(0, false); !isWrong(err) {
		t.Fatalf("corrupted expectation: op returned %v", err)
	}
}

func TestGraphLSTMOpRejectsFlippedBit(t *testing.T) {
	w := newGraphLSTM()
	if err := w.prepare(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	teardown, err := w.setUp(true)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	if _, err := w.do(0, true); err != nil {
		t.Fatalf("clean op: %v", err)
	}
	w.pool[0].want[1][0] ^= 1
	if _, err := w.do(0, false); !isWrong(err) {
		t.Fatalf("corrupted expectation: op returned %v", err)
	}
}

func TestPaperSweepRejectsPerturbedFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full sweeps")
	}
	w := newPaperSweep()
	teardown, err := w.setUp(false)
	if err != nil {
		t.Fatal(err)
	}
	defer teardown()
	if _, err := w.do(0, true); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	w.first["fig10.B2.GEMV3"] = math.Nextafter(w.first["fig10.B2.GEMV3"], math.Inf(1))
	if _, err := w.do(1, true); !isWrong(err) {
		t.Fatalf("perturbed first-sweep figure: op returned %v", err)
	}
}

// A run attempts whole rounds whatever its length and caller count.
type countingWorkload struct{ graphLSTM }

func (w *countingWorkload) callers() int  { return 2 }
func (w *countingWorkload) roundLen() int { return 3 }
func (w *countingWorkload) warmOps() int  { return 6 }
func (w *countingWorkload) do(_ int, _ bool) (float64, error) {
	time.Sleep(time.Millisecond)
	return 1, nil
}

func TestRunOpsAttemptsWholeRounds(t *testing.T) {
	w := &countingWorkload{}
	if p := runOps(w, 0, 0, true); p.attempted != 6 {
		t.Fatalf("pool pass attempted %d ops, want 6", p.attempted)
	}
	for _, secs := range []float64{0.001, 0.013, 0.05} {
		p := runOps(w, 6, secs, false)
		if p.attempted == 0 || p.attempted%3 != 0 || p.failed != 0 {
			t.Errorf("%gs: attempted %d, failed %d; want whole rounds of 3", secs, p.attempted, p.failed)
		}
	}
}

func TestTailQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := tailQuantile(xs, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestProfileLedgerAttributesByLeafAndLabel(t *testing.T) {
	for fn, want := range map[string]string{
		"pimsim/internal/hbm.(*bank).row":                         "pimsim/internal/hbm",
		"net/http.(*conn).serve":                                  "net/http",
		"runtime.mallocgc":                                        "runtime",
		"pimsim/internal/serve.(*fairQueue[go.shape.*uint8]).pop": "pimsim/internal/serve",
		"pimsim/internal/fp16.MACVec":                             "pimsim/internal/fp16",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
	prof, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go pprof.Do(context.Background(), pprof.Labels("side", "harness"), func(context.Context) {
		defer close(done)
		x := fp16.NewVector(4096)
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			for i := range x {
				x[i] = fp16.MAC(x[i], 0x3c00, 0x3c00)
			}
		}
	})
	<-done
	samples, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	by := attribute(samples)
	if by["harness"] == 0 {
		t.Errorf("no samples charged to the labeled harness goroutine: %v", by)
	}
	if by["fp16"] != 0 {
		t.Errorf("harness samples leaked into the fp16 layer: %v", by)
	}
}
