package pace

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"pacesweep/internal/artifact"
	"pacesweep/internal/mp"
)

// TestTracePredictLongHorizonExtrapolates is the canonicalization
// acceptance: a long-horizon prediction on the (deterministic) fitted
// model must replay the canonical short trace with analytic cycle
// extrapolation — reporting the skipped iterations — while staying
// bit-identical to a full event-backend simulation of every iteration.
func TestTracePredictLongHorizonExtrapolates(t *testing.T) {
	FlushTraceCache()
	ev := testEvaluator(t)
	cfg := paperConfig(3, 2)
	cfg.Iterations = 500

	before := TraceExtrapolation()
	got, err := ev.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Iterations - steadyCanonIters; got.ExtrapolatedIterations != want {
		t.Fatalf("ExtrapolatedIterations = %d, want %d", got.ExtrapolatedIterations, want)
	}
	after := TraceExtrapolation()
	if after.CycleReplays == before.CycleReplays ||
		after.ExtrapolatedReplays == before.ExtrapolatedReplays ||
		after.ExtrapolatedIterations-before.ExtrapolatedIterations < uint64(got.ExtrapolatedIterations) {
		t.Fatalf("extrapolation counters did not advance: before %+v after %+v", before, after)
	}

	evE := *ev
	evE.Scheduler = mp.SchedulerEvent
	want, err := evE.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.ExtrapolatedIterations != 0 {
		t.Fatalf("event backend reports extrapolation: %d", want.ExtrapolatedIterations)
	}
	ref := *want
	ref.ExtrapolatedIterations = got.ExtrapolatedIterations
	if *got != ref {
		t.Fatalf("extrapolated prediction differs from event backend:\n got %+v\nwant %+v", got, want)
	}
}

// TestTraceExtrapolationCrossBinadeMatchesEvent is the pace-level
// differential net for extrapolated replay. The horizons run from one
// cycle past the canonical trace (13) to ones whose clocks cross several
// binades (100, 1000), where the analytic jumps land on binade edges and
// the crossing cycles replay for real. Each prediction must be
// bit-identical to a full event-backend run.
func TestTraceExtrapolationCrossBinadeMatchesEvent(t *testing.T) {
	platforms := map[string]func() *Evaluator{
		"flat": func() *Evaluator { return testEvaluator(t) },
		"hier": func() *Evaluator { return hierEvaluator(t, hierTestModel()) },
	}
	for name, build := range platforms {
		ev := build()
		evE := *build()
		evE.Scheduler = mp.SchedulerEvent
		for _, arr := range [][2]int{{2, 2}, {3, 3}} {
			for _, iters := range []int{13, 100, 1000} {
				cfg := paperConfig(arr[0], arr[1])
				cfg.Iterations = iters
				got, err := ev.Predict(cfg)
				if err != nil {
					t.Fatalf("%s %v it=%d: %v", name, arr, iters, err)
				}
				if want := iters - steadyCanonIters; got.ExtrapolatedIterations != want {
					t.Fatalf("%s %v it=%d: ExtrapolatedIterations = %d, want %d",
						name, arr, iters, got.ExtrapolatedIterations, want)
				}
				want, err := evE.Predict(cfg)
				if err != nil {
					t.Fatalf("%s %v it=%d event: %v", name, arr, iters, err)
				}
				ref := *want
				ref.ExtrapolatedIterations = got.ExtrapolatedIterations
				if *got != ref {
					t.Fatalf("%s %v it=%d: extrapolated prediction differs from event backend:\n got %+v\nwant %+v",
						name, arr, iters, got, want)
				}
			}
		}
	}
}

// TestTraceCanonSharesCompiledShape pins that different long horizons of
// one shape replay the same canonical compiled trace: the second horizon
// must not add a trace-cache miss (no recompilation).
func TestTraceCanonSharesCompiledShape(t *testing.T) {
	FlushTraceCache()
	ev := testEvaluator(t)
	cfg := paperConfig(2, 3)
	cfg.Iterations = 100
	if _, err := ev.Predict(cfg); err != nil {
		t.Fatal(err)
	}
	misses := TraceCacheStats().Misses
	long := cfg
	long.Iterations = 1000
	p, err := ev.Predict(long)
	if err != nil {
		t.Fatal(err)
	}
	if got := TraceCacheStats().Misses; got != misses {
		t.Fatalf("second horizon recompiled the trace (misses %d -> %d)", misses, got)
	}
	if p.ExtrapolatedIterations != long.Iterations-steadyCanonIters {
		t.Fatalf("ExtrapolatedIterations = %d, want %d",
			p.ExtrapolatedIterations, long.Iterations-steadyCanonIters)
	}
}

// fnv1aTest mirrors the artifact envelope checksum so the corruption test
// below can re-seal a surgically corrupted payload. (FNV-1a 64; if the
// envelope hash ever changes this test fails loudly on the re-seal.)
func fnv1aTest(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// TestArtifactCorruptCycleMetadataQuarantines pins the .bad path for the
// v2 cycle block specifically: an artifact whose envelope checksums
// cleanly but whose cycle metadata fails structural validation must be
// quarantined and the prediction served by live compilation, unchanged.
func TestArtifactCorruptCycleMetadataQuarantines(t *testing.T) {
	s := withStore(t)
	cfg := paperConfig(2, 2)
	cfg.Iterations = 100 // long horizon: the persisted trace is the canonical shape
	cold, err := testEvaluator(t).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.ExtrapolatedIterations == 0 {
		t.Fatal("long-horizon predict did not extrapolate")
	}
	keys, err := s.Keys(artifact.KindTrace)
	if err != nil || len(keys) != 1 {
		t.Fatalf("trace keys %v, err %v", keys, err)
	}
	data, err := s.Get(artifact.KindTrace, keys[0])
	if err != nil {
		t.Fatal(err)
	}
	// The payload ends with the cycle block's final cursor field; blow it
	// out of range and re-seal the checksum so only the metadata is bad.
	bad := append([]byte(nil), data...)
	body := bad[:len(bad)-8]
	binary.LittleEndian.PutUint32(body[len(body)-4:], 1<<28)
	binary.LittleEndian.PutUint64(bad[len(bad)-8:], fnv1aTest(body))
	if _, err := mp.DecodeTrace(bad); err == nil {
		t.Fatal("surgically corrupted metadata still decodes — test surgery missed the cycle block")
	}
	if err := s.Put(artifact.KindTrace, keys[0], bad); err != nil {
		t.Fatal(err)
	}

	FlushTraceCache()
	warm, err := testEvaluator(t).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *warm != *cold {
		t.Fatalf("fallback prediction differs: %+v != %+v", warm, cold)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestTraceExtrapolationDifferential is the pace-level differential net
// for the replay-time jump rule: across arrays, mk/mmi blockings, cell
// sizes and both test platforms (flat and two-level), the canonical
// 12-iteration trace replayed with ExtraCycles must equal the full-length
// trace replayed twice — on the fused loop, and on the instrumented loop
// (a probe forces it), which never extrapolates — bit for bit on every
// rank clock and every mark.
func TestTraceExtrapolationDifferential(t *testing.T) {
	evs := map[string]*Evaluator{"flat": testEvaluator(t), "hier": hierEvaluator(t, hierTestModel())}
	shapes := []struct{ px, py, mk, mmi, cells int }{
		{2, 2, 10, 3, 50}, {3, 3, 5, 1, 20}, {4, 2, 25, 6, 5}, {5, 3, 5, 2, 35},
		{2, 4, 50, 3, 10}, {6, 4, 10, 3, 15}, {1, 4, 5, 2, 25},
	}
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	for _, sh := range shapes {
		cfg := replayShape(sh.px, sh.py, sh.cells)
		cfg.MK, cfg.MMI = sh.mk, sh.mmi
		_, canon := compileShape(t, evs["flat"], cfg)
		for _, iters := range []int{40, 150} {
			full := cfg
			full.Iterations = iters
			_, long := compileShape(t, evs["flat"], full)
			for name, ev := range evs {
				k, err := ev.kernelFor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				params := mp.ReplayParams{Charges: k.charges, Sizes: k.sizes}
				net := ev.HW.Net()
				ext, fused, inst := mp.NewReplayer(), mp.NewReplayer(), mp.NewReplayer()
				extParams := params
				extParams.ExtraCycles = iters - steadyCanonIters
				if err := ext.Replay(canon, mp.Options{Net: net}, extParams); err != nil {
					t.Fatal(err)
				}
				if err := fused.Replay(long, mp.Options{Net: net}, params); err != nil {
					t.Fatal(err)
				}
				if err := inst.Replay(long, mp.Options{Net: net, Probe: &mp.RunProbe{}}, params); err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s %+v it=%d", name, sh, iters)
				if ext.Stats().ExtrapolatedCycles == 0 {
					t.Fatalf("%s: nothing extrapolated (stats %+v)", where, ext.Stats())
				}
				for i := 0; i < canon.Ranks(); i++ {
					if bits(ext.Clock(i)) != bits(inst.Clock(i)) || bits(fused.Clock(i)) != bits(inst.Clock(i)) {
						t.Fatalf("%s: clock[%d] extrapolated %v, fused %v, full %v",
							where, i, ext.Clock(i), fused.Clock(i), inst.Clock(i))
					}
				}
				for m := range inst.Marks() {
					if bits(ext.Marks()[m]) != bits(inst.Marks()[m]) || bits(fused.Marks()[m]) != bits(inst.Marks()[m]) {
						t.Fatalf("%s: mark[%d] extrapolated %v, fused %v, full %v",
							where, m, ext.Marks()[m], fused.Marks()[m], inst.Marks()[m])
					}
				}
			}
		}
	}
}
