package pace

import (
	"math"
	"strings"
	"testing"

	"pacesweep/internal/capp"
	"pacesweep/internal/clc"
	"pacesweep/internal/grid"
	"pacesweep/internal/hwmodel"
	"pacesweep/internal/platform"
)

// testModel builds a deterministic fitted hardware model directly (no
// benchmark noise) for unit tests.
func testModel() *hwmodel.Model {
	return &hwmodel.Model{
		Name:   "test-110mflops",
		MFLOPS: 110,
		OpcodeCosts: clc.CostTable{
			clc.MFDG: 10e-9, clc.AFDG: 9e-9, clc.DFDG: 28e-9,
			clc.IFBR: 1.5e-9, clc.LFOR: 2e-9,
		},
		Send:     platform.Piecewise{A: 512, B: 6, C: 0.008, D: 8, E: 0.0042},
		Recv:     platform.Piecewise{A: 512, B: 7, C: 0.008, D: 9, E: 0.0042},
		PingPong: platform.Piecewise{A: 512, B: 26, C: 0.02, D: 32, E: 0.0088},
	}
}

func testEvaluator(t testing.TB) *Evaluator {
	t.Helper()
	analysis, err := capp.SweepKernelAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(testModel(), analysis)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func paperConfig(px, py int) Config {
	return Config{
		Grid:       grid.Global{NX: 50 * px, NY: 50 * py, NZ: 50},
		Decomp:     grid.Decomp{PX: px, PY: py},
		MK:         10,
		MMI:        3,
		Angles:     6,
		Iterations: 12,
	}
}

func TestConfigValidation(t *testing.T) {
	good := paperConfig(2, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Grid: grid.Global{NX: 10, NY: 10, NZ: 10}, Decomp: grid.Decomp{PX: 1, PY: 1}, MK: 0, MMI: 1, Angles: 6, Iterations: 1},
		{Grid: grid.Global{NX: 10, NY: 10, NZ: 10}, Decomp: grid.Decomp{PX: 1, PY: 1}, MK: 1, MMI: 1, Angles: 0, Iterations: 1},
		{Grid: grid.Global{NX: 10, NY: 10, NZ: 10}, Decomp: grid.Decomp{PX: 1, PY: 1}, MK: 1, MMI: 1, Angles: 6, Iterations: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	c := paperConfig(4, 5)
	if c.AngleBlocks() != 2 || c.KBlocks() != 5 {
		t.Errorf("blocks: ab=%d kb=%d", c.AngleBlocks(), c.KBlocks())
	}
	if c.CellsPerProc() != 125000 {
		t.Errorf("cells per proc = %d", c.CellsPerProc())
	}
	ew, ns := c.messageBytes()
	if ew != 12000 || ns != 12000 {
		t.Errorf("message bytes = %d, %d", ew, ns)
	}
}

func TestSerialPredictionMatchesHandComputation(t *testing.T) {
	ev := testEvaluator(t)
	cfg := paperConfig(1, 1)
	pred, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// By hand: 12 iterations of (125000 cells * 48 angle-octants * 37
	// flops + 125000 * (5+2) flops) at 110 MFLOPS.
	perFlop := 1 / 110e6
	want := 12 * (125000*48*37 + 125000*7) * perFlop
	if math.Abs(pred.Total-want)/want > 1e-9 {
		t.Errorf("serial prediction = %v, want %v", pred.Total, want)
	}
	if pred.FillStages != 0 {
		t.Errorf("serial fill = %d", pred.FillStages)
	}
}

func TestPredictionGrowsLinearlyWithArray(t *testing.T) {
	// Weak scaling: the paper's Section 5 observation that runtime grows
	// linearly with the pipeline stage count.
	ev := testEvaluator(t)
	t22, err := ev.Predict(paperConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	t44, err := ev.Predict(paperConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	t88, err := ev.Predict(paperConfig(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !(t22.Total < t44.Total && t44.Total < t88.Total) {
		t.Fatalf("not growing: %v %v %v", t22.Total, t44.Total, t88.Total)
	}
	d1 := t44.Total - t22.Total
	d2 := t88.Total - t44.Total
	if math.Abs(d2-2*d1)/d2 > 0.1 {
		t.Errorf("growth not linear in Px+Py: %v vs %v", d1, d2)
	}
	// Magnitude: the 2x2 P-III-class prediction should sit in the paper's
	// regime (Table 1 predicted 28.59 s at 2x2).
	if t22.Total < 20 || t22.Total > 32 {
		t.Errorf("2x2 prediction = %v s, expected 20-32 s", t22.Total)
	}
}

func TestClosedFormMatchesTemplate(t *testing.T) {
	// The analytic fast path must agree with the template evaluation
	// engine within a few percent across shapes, including non-square and
	// degenerate arrays.
	ev := testEvaluator(t)
	for _, d := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {2, 3}, {4, 5}, {8, 8}, {3, 10}, {8, 14}, {10, 11}} {
		cfg := paperConfig(d[0], d[1])
		tmpl, err := ev.Predict(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := ev.PredictClosedForm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(cf.Total-tmpl.Total) / tmpl.Total
		if rel > 0.03 {
			t.Errorf("%dx%d: closed form %v vs template %v (rel %.3f)",
				d[0], d[1], cf.Total, tmpl.Total, rel)
		}
	}
}

func TestClosedFormRaggedBlocks(t *testing.T) {
	ev := testEvaluator(t)
	cfg := paperConfig(3, 4)
	cfg.MK = 7  // 50/7 -> ragged
	cfg.MMI = 4 // 6/4 -> ragged
	tmpl, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := ev.PredictClosedForm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(cf.Total-tmpl.Total) / tmpl.Total; rel > 0.05 {
		t.Errorf("ragged closed form %v vs template %v (rel %.3f)", cf.Total, tmpl.Total, rel)
	}
}

func TestPredictAutoSwitchesPath(t *testing.T) {
	ev := testEvaluator(t)
	small, err := ev.PredictAuto(paperConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if small.Method != "template" {
		t.Errorf("small array method = %q", small.Method)
	}
	// 900 processors: well beyond the old 512-rank template ceiling, now
	// simulated directly by the event scheduler.
	mid, err := ev.PredictAuto(paperConfig(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	if mid.Method != "template" {
		t.Errorf("mid array method = %q, want template through %d ranks", mid.Method, TemplateMaxRanks)
	}
	// Beyond the paper's largest speculative study the closed form takes
	// over.
	big, err := ev.PredictAuto(paperConfig(95, 95))
	if err != nil {
		t.Fatal(err)
	}
	if big.Method != "closed-form" {
		t.Errorf("large array method = %q", big.Method)
	}
}

func TestOpcodeModeOverpredicts(t *testing.T) {
	// The old hardware layer must predict longer runtimes than the
	// achieved-rate layer on this model (Section 4's discrepancy).
	ev := testEvaluator(t)
	newPred, err := ev.Predict(paperConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	evOld := *ev
	evOld.UseOpcodeCosts = true
	oldPred, err := evOld.Predict(paperConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if oldPred.Total <= newPred.Total {
		t.Errorf("opcode mode %v not above achieved-rate mode %v", oldPred.Total, newPred.Total)
	}
}

func TestBlockingFactorsMatter(t *testing.T) {
	// Finer k-blocking shortens the pipeline fill (smaller blocks) but
	// adds messages; at 8x8 with these parameters fill dominates, so
	// mk=5 must beat mk=50 (single block).
	ev := testEvaluator(t)
	cfg := paperConfig(8, 8)
	cfg.MK = 5
	fine, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MK = 50
	coarse, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Total >= coarse.Total {
		t.Errorf("mk=5 (%v) should beat mk=50 (%v) at 8x8", fine.Total, coarse.Total)
	}
}

func TestPredictionString(t *testing.T) {
	ev := testEvaluator(t)
	pred, err := ev.Predict(paperConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := pred.String()
	if !strings.Contains(s, "total") || !strings.Contains(s, "template") {
		t.Errorf("String = %q", s)
	}
}

func TestNewEvaluatorMissingFlow(t *testing.T) {
	analysis, err := capp.Analyze(`void unrelated(void) { }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(testModel(), analysis); err == nil {
		t.Error("expected missing-flow error")
	}
	bad := testModel()
	bad.MFLOPS = 0
	full, err := capp.SweepKernelAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(bad, full); err == nil {
		t.Error("expected invalid-model error")
	}
}

func TestRealisticWorkloadScaling(t *testing.T) {
	ev := testEvaluator(t)
	pred, err := ev.Predict(paperConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	target := ASCITarget()
	if target.Groups != 30 || target.TimeSteps != 1000 {
		t.Fatalf("ASCI target = %+v", target)
	}
	total, err := target.Scale(pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-pred.Total*30000) > 1e-9 {
		t.Errorf("scaled total = %v", total)
	}
	hours, err := target.Hours(pred)
	if err != nil {
		t.Fatal(err)
	}
	// ~26s per step -> ~216 hours: grossly overruns a 100-hour goal, as
	// the paper concludes for its speculated configurations.
	over, h, err := target.OverrunsGoal(pred, 100)
	if err != nil || !over {
		t.Errorf("expected goal overrun: %v h (err %v)", h, err)
	}
	if math.Abs(hours-h) > 1e-12 {
		t.Errorf("hours mismatch: %v vs %v", hours, h)
	}
	if _, err := (RealisticWorkload{}).Scale(pred); err == nil {
		t.Error("expected validation error")
	}
}

// countingExpr is a loop count that records how often its flow was
// evaluated.
type countingExpr struct{ n *int }

func (c countingExpr) Eval(clc.Params) (float64, error) { *c.n++; return 0, nil }
func (c countingExpr) String() string                   { return "count" }

// TestKernelBlockFlowEvaluations pins the block-cost memo: a kernel (and
// the closed form) evaluates the block flow once per distinct (na, nk)
// shape — at most four, whatever the block counts — and every block
// still carries the cost an unmemoised evaluation gives it.
func TestKernelBlockFlowEvaluations(t *testing.T) {
	ev := testEvaluator(t)
	var n int
	counted := *ev
	counted.WorkFlow = clc.Seq(clc.Loop(countingExpr{&n}), ev.WorkFlow)
	for _, c := range []struct{ mk, mmi, angles int }{
		{10, 3, 6}, {7, 4, 6}, {1, 1, 6}, {50, 8, 6}, {3, 5, 12},
	} {
		cfg := paperConfig(3, 2)
		cfg.MK, cfg.MMI, cfg.Angles = c.mk, c.mmi, c.angles
		n = 0
		k, err := counted.buildKernel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || n > 4 {
			t.Errorf("%+v: kernel evaluated the block flow %d times, want 1..4", c, n)
		}
		for ab := 0; ab < k.nab; ab++ {
			for kb := 0; kb < k.nkb; kb++ {
				want, err := counted.blockCost(cfg, blockLen(ab, cfg.MMI, cfg.Angles), blockLen(kb, cfg.MK, cfg.Grid.NZ))
				if err != nil {
					t.Fatal(err)
				}
				if got := k.charges[ab*k.nkb+kb]; got != want {
					t.Fatalf("%+v: block (%d, %d) costs %v, want %v", c, ab, kb, got, want)
				}
			}
		}
		n = 0
		if _, err := counted.PredictClosedForm(cfg); err != nil {
			t.Fatal(err)
		}
		if n == 0 || n > 4 {
			t.Errorf("%+v: closed form evaluated the block flow %d times, want 1..4", c, n)
		}
	}
}
