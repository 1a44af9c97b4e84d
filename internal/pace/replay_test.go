package pace

import (
	"strconv"
	"testing"

	"pacesweep/internal/grid"
	"pacesweep/internal/mp"
)

// replayShape is the wavefront shape of the replay stage tests: a px x py
// array, mk 5, mmi 3, six angles and the canonical 12 iterations, with
// cells x cells x 50 cells per rank.
func replayShape(px, py, cells int) Config {
	return Config{
		Grid:   grid.Global{NX: cells * px, NY: cells * py, NZ: 50},
		Decomp: grid.Decomp{PX: px, PY: py},
		MK:     5, MMI: 3, Angles: 6, Iterations: steadyCanonIters,
	}
}

// compileShape builds the configuration's cost kernel and records its
// trace, bypassing the trace cache.
func compileShape(tb testing.TB, ev *Evaluator, cfg Config) (*costKernel, *mp.Trace) {
	tb.Helper()
	k, err := ev.kernelFor(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := ev.compileTrace(cfg.Decomp, k, cfg.Iterations, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return k, tr
}

// TestTraceStreamTableSweepShapes pins the replay memory law: a replay
// holds ranks x link classes stream headers, and a wavefront talks on
// exactly 4 link classes (+-1 on tag 1, +-PX on tag 2) whatever its size,
// so the table is 4 headers per rank up to the 32x32 array. A single
// column has no x neighbours and needs 2.
func TestTraceStreamTableSweepShapes(t *testing.T) {
	ev := testEvaluator(t)
	for _, c := range []struct{ px, py, links int }{
		{32, 32, 4}, {4, 3, 4}, {2, 2, 4}, {1, 4, 2},
	} {
		_, tr := compileShape(t, ev, replayShape(c.px, c.py, 5))
		if got := tr.LinkClasses(); got != c.links {
			t.Errorf("%dx%d: link classes = %d, want %d", c.px, c.py, got, c.links)
		}
		if got, want := tr.Ranks()*tr.LinkClasses(), c.links*c.px*c.py; got != want {
			t.Errorf("%dx%d: stream headers = %d, want %d", c.px, c.py, got, want)
		}
	}
}

// BenchmarkReplayWavefront is the replay stage alone: one compiled 32x32
// trace replayed by one warmed replayer, with no compile, kernel build or
// prediction bookkeeping in the timed loop. Points alternate two platforms
// (flat and two-level) over five per-rank cell sizes, ten distinct cost
// tables in all, more than the replayer's steady-state plan memo holds, so
// every replay runs its cycles as a fresh sweep cell would. The
// iters=1000 sub-benchmark replays the same 12-iteration trace with 988
// extra steady cycles, the long-horizon extrapolation a sweep point pays.
func BenchmarkReplayWavefront(b *testing.B) {
	const px, py = 32, 32
	evs := []*Evaluator{testEvaluator(b), hierEvaluator(b, hierTestModel())}
	type point struct {
		opts   mp.Options
		params mp.ReplayParams
	}
	var (
		pts []point
		tr  *mp.Trace
	)
	for _, cells := range []int{5, 10, 20, 35, 50} {
		for _, ev := range evs {
			cfg := replayShape(px, py, cells)
			k, err := ev.kernelFor(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if tr == nil {
				_, tr = compileShape(b, ev, cfg)
			}
			pts = append(pts, point{mp.Options{Net: ev.HW.Net()}, mp.ReplayParams{Charges: k.charges, Sizes: k.sizes}})
		}
	}
	for _, iters := range []int{steadyCanonIters, 1000} {
		name := "P=" + strconv.Itoa(px*py)
		if iters != steadyCanonIters {
			name += "/iters=" + strconv.Itoa(iters)
		}
		for i := range pts {
			pts[i].params.ExtraCycles = iters - steadyCanonIters
		}
		b.Run(name, func(b *testing.B) {
			rp := mp.NewReplayer()
			// Two warm passes: the second must replay exactly as many
			// cycles as the first, or a plan memo hit is shortening the
			// loop.
			var first []mp.ReplayStats
			for pass := 0; pass < 2; pass++ {
				for i, p := range pts {
					if err := rp.Replay(tr, p.opts, p.params); err != nil {
						b.Fatal(err)
					}
					if pass == 0 {
						first = append(first, rp.Stats())
					} else if rp.Stats() != first[i] {
						b.Fatalf("point %d: replay stats %+v then %+v: the plan memo hit", i, first[i], rp.Stats())
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := &pts[i%len(pts)]
				if err := rp.Replay(tr, p.opts, p.params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
