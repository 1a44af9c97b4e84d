package mp

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// detAlphaBeta is alphaBeta with the DeterministicCosts opt-in, driving
// the replayer's precomputed-price fast path.
type detAlphaBeta struct{ alphaBeta }

func (detAlphaBeta) CostsDeterministic() bool { return true }

// TestTraceRecordThenReplayDetNet covers the deterministic-cost replay
// fast path: recorded clocks and replayed clocks must match a fresh event
// run bit for bit, across several replays.
func TestTraceRecordThenReplayDetNet(t *testing.T) {
	net := detAlphaBeta{alphaBeta{alpha: 2e-5, beta: 1e-8}}
	prog := wavefrontProgram(4, 3, 4)
	ref, err := NewWorld(12, Options{Net: net, Seed: 11, Scheduler: SchedulerEvent})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(prog); err != nil {
		t.Fatal(err)
	}
	tw, err := NewWorld(12, Options{Net: net, Seed: 11, Scheduler: SchedulerTrace})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		if rep > 0 {
			tw.Reset()
		}
		if err := tw.Run(prog); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		for i := 0; i < 12; i++ {
			if tw.Clock(i) != ref.Clock(i) {
				t.Fatalf("rep %d: clock[%d] = %v, want %v", rep, i, tw.Clock(i), ref.Clock(i))
			}
		}
	}
	if tr := tw.Trace(); tr == nil || tr.Ranks() != 12 || tr.Ops() == 0 {
		t.Fatalf("trace not captured: %+v", tw.Trace())
	}
}

// TestTraceChunkInterning checks that ranks with identical delta-encoded
// scripts share interned chunks: in a 16-rank ring every interior rank
// records the same ops, so the trace must be far smaller than the raw op
// stream.
func TestTraceChunkInterning(t *testing.T) {
	w, err := NewWorld(16, Options{Scheduler: SchedulerTrace})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ringProgram(200)); err != nil {
		t.Fatal(err)
	}
	tr := w.Trace()
	if tr.Ops() != 16*200*3 {
		t.Fatalf("ops = %d, want %d", tr.Ops(), 16*200*3)
	}
	// 14 interior ranks share one script; rank 0 and rank 15 differ (ring
	// wrap deltas). Generous bound: interning must cut at least 4x.
	if tr.UniqueOps()*4 > tr.Ops() {
		t.Errorf("chunk interning too weak: %d unique of %d ops", tr.UniqueOps(), tr.Ops())
	}
}

// TestTraceParamReplay is the cost-reparameterisation contract: a program
// recorded through ChargeParam/SendParam replays under swapped tables with
// clocks bit-identical to a live event run using those tables.
func TestTraceParamReplay(t *testing.T) {
	const n = 6
	prog := func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		for i := 0; i < 8; i++ {
			c.ChargeParam(i % 3)
			c.SendParam(next, 0, i%2)
			c.RecvN(prev, 0)
			if i == 4 && c.Rank() == 0 {
				c.Mark(0)
			}
		}
		c.Barrier()
		return nil
	}
	net := detAlphaBeta{alphaBeta{alpha: 1e-5, beta: 3e-9}}
	chargesA := []float64{1e-4, 2e-4, 0}
	sizesA := []int{800, 1600}
	chargesB := []float64{5e-4, 1e-5, 7e-4}
	sizesB := []int{64, 4096}

	run := func(sched string, charges []float64, sizes []int) *World {
		w, err := NewWorld(n, Options{Net: net, Scheduler: sched})
		if err != nil {
			t.Fatal(err)
		}
		w.SetParams(charges, sizes)
		if err := w.Run(prog); err != nil {
			t.Fatal(err)
		}
		return w
	}

	tw := run(SchedulerTrace, chargesA, sizesA) // records under table A
	for _, tab := range []struct {
		charges []float64
		sizes   []int
	}{{chargesA, sizesA}, {chargesB, sizesB}} {
		ref := run(SchedulerEvent, tab.charges, tab.sizes)
		tw.Reset()
		tw.SetParams(tab.charges, tab.sizes)
		if err := tw.Run(prog); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if tw.Clock(i) != ref.Clock(i) {
				t.Fatalf("clock[%d] = %v, want %v", i, tw.Clock(i), ref.Clock(i))
			}
		}
		if tw.Marks()[0] != ref.Marks()[0] {
			t.Fatalf("mark = %v, want %v", tw.Marks()[0], ref.Marks()[0])
		}
	}
}

// TestTraceReplayerShared replays one trace from several Replayers and
// under different parameter tables via the public Replayer API.
func TestTraceReplayerShared(t *testing.T) {
	net := detAlphaBeta{alphaBeta{alpha: 1e-5}}
	w, err := NewWorld(4, Options{Net: net, Scheduler: SchedulerEvent})
	if err != nil {
		t.Fatal(err)
	}
	charges := []float64{2e-3}
	w.SetParams(charges, nil)
	prog := func(c *Comm) error {
		if c.Rank() > 0 {
			c.Recv(c.Rank()-1, 0)
		}
		c.ChargeParam(0)
		if c.Rank() < c.Size()-1 {
			c.SendN(c.Rank()+1, 0, 512, nil)
		}
		c.AllreduceMax(0)
		return nil
	}
	tr, err := w.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := w.Makespan()

	for i := 0; i < 2; i++ {
		rp := NewReplayer()
		if err := rp.Replay(tr, Options{Net: net}, ReplayParams{Charges: charges}); err != nil {
			t.Fatal(err)
		}
		if rp.Makespan() != want {
			t.Fatalf("replayer %d makespan = %v, want %v", i, rp.Makespan(), want)
		}
		// Re-parameterised replay: double the charge, makespan moves.
		if err := rp.Replay(tr, Options{Net: net}, ReplayParams{Charges: []float64{4e-3}}); err != nil {
			t.Fatal(err)
		}
		if rp.Makespan() <= want {
			t.Fatalf("re-priced makespan = %v, want > %v", rp.Makespan(), want)
		}
	}

	// Missing parameter tables must be a validation error, not a panic.
	if err := NewReplayer().Replay(tr, Options{Net: net}, ReplayParams{}); err == nil {
		t.Fatal("expected param-table validation error")
	}
}

// TestTraceFailedRecordingNotStored pins the recording failure contract:
// a deadlocked recording stores no trace, and the world records again
// (successfully) after Reset.
func TestTraceFailedRecordingNotStored(t *testing.T) {
	w, err := NewWorld(2, Options{Scheduler: SchedulerTrace})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Recv(0, 99) // never sent
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected deadlock error from recording run")
	}
	if w.Trace() != nil {
		t.Fatal("failed recording stored a trace")
	}
	w.Reset()
	good := func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendN(1, 0, 64, nil)
		} else {
			c.RecvN(0, 0)
		}
		return nil
	}
	if err := w.Run(good); err != nil {
		t.Fatal(err)
	}
	if w.Trace() == nil {
		t.Fatal("successful recording stored no trace")
	}
	// DiscardTrace forces a re-record.
	w.DiscardTrace()
	w.Reset()
	if err := w.Run(good); err != nil {
		t.Fatal(err)
	}
	if w.Trace() == nil {
		t.Fatal("re-record after DiscardTrace stored no trace")
	}
}

// TestTraceReplayZeroAllocs is the replay-path allocation acceptance,
// mirroring TestEventSteadyStateZeroAllocs: a warmed trace world must
// replay with zero heap allocations for the entire Reset+Run cycle.
func TestTraceReplayZeroAllocs(t *testing.T) {
	w, err := NewWorld(8, Options{
		Net:       alphaBeta{alpha: 1e-6, beta: 1e-9},
		Seed:      7,
		Scheduler: SchedulerTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := ringProgram(50)
	// Warm: the first run records; the next replays materialise the
	// replayer, its per-rank streams and RNGs.
	for i := 0; i < 3; i++ {
		if i > 0 {
			w.Reset()
		}
		if err := w.Run(prog); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		w.Reset()
		if err := w.Run(prog); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state replay Reset+Run allocations = %v per cycle (%d message ops), want 0", avg, 8*50*2)
	}
}

// TestTraceReplayZeroAllocsDetNet is the same acceptance on the
// deterministic-cost fast path (precomputed price tables, no RNGs).
func TestTraceReplayZeroAllocsDetNet(t *testing.T) {
	w, err := NewWorld(8, Options{
		Net:       detAlphaBeta{alphaBeta{alpha: 1e-6, beta: 1e-9}},
		Scheduler: SchedulerTrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := ringProgram(50)
	for i := 0; i < 3; i++ {
		if i > 0 {
			w.Reset()
		}
		if err := w.Run(prog); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		w.Reset()
		if err := w.Run(prog); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("det-net replay Reset+Run allocations = %v per cycle, want 0", avg)
	}
}

// TestTraceReplayZeroAllocsPerturbationDisabled guards the serving fast
// path against the fault-injection machinery: a warmed replayer that has
// just executed a *perturbed* replay (delays + probe, which allocate
// cursor state) must return to zero allocations per Reset+Run cycle the
// moment perturbation is disabled again.
func TestTraceReplayZeroAllocsPerturbationDisabled(t *testing.T) {
	net := alphaBeta{alpha: 1e-6, beta: 1e-9}
	w, err := NewWorld(8, Options{Net: net, Seed: 7, Scheduler: SchedulerEvent})
	if err != nil {
		t.Fatal(err)
	}
	prog := ringProgram(50)
	tr, err := w.RunRecorded(prog)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer()
	plain := Options{Net: net, Seed: 7}
	perturbed := Options{
		Net:    net,
		Seed:   7,
		Delays: []Delay{{Rank: 3, Op: 10, Seconds: 1e-3}},
		Probe:  &RunProbe{},
	}
	// Warm the replayer, run a perturbed replay in the middle, and confirm
	// the perturbed makespan moved.
	for i := 0; i < 3; i++ {
		if err := rp.Replay(tr, plain, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
	}
	base := rp.Makespan()
	if err := rp.Replay(tr, perturbed, ReplayParams{}); err != nil {
		t.Fatal(err)
	}
	if rp.Makespan() < base {
		t.Fatalf("perturbed makespan %v < baseline %v", rp.Makespan(), base)
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := rp.Replay(tr, plain, ReplayParams{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("perturbation-disabled replay allocations = %v per cycle, want 0", avg)
	}
	if rp.Makespan() != base {
		t.Errorf("perturbation-disabled makespan %v != baseline %v", rp.Makespan(), base)
	}
}

// TestTraceNonDeterministicNetBitIdentical drives the faithful (RNG
// drawing) replay path with a jittering cost model: replays must still be
// bit-identical to the event backend because per-rank draw order is the
// program order on both paths.
func TestTraceNonDeterministicNetBitIdentical(t *testing.T) {
	net := jitterNet{alphaBeta{alpha: 2e-5, beta: 1e-8}, 0.2}
	prog := wavefrontProgram(3, 2, 4)
	ref, err := NewWorld(6, Options{Net: net, Noise: jitterNoise{0.05}, Seed: 99, Scheduler: SchedulerEvent})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(prog); err != nil {
		t.Fatal(err)
	}
	tw, err := NewWorld(6, Options{Net: net, Noise: jitterNoise{0.05}, Seed: 99, Scheduler: SchedulerTrace})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		if rep > 0 {
			tw.Reset()
		}
		if err := tw.Run(prog); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if tw.Clock(i) != ref.Clock(i) {
				t.Fatalf("rep %d: clock[%d] = %v, want %v", rep, i, tw.Clock(i), ref.Clock(i))
			}
		}
	}
}

// jitterNet perturbs every alphaBeta cost with the supplied RNG stream —
// the adversarial case for replay fidelity.
type jitterNet struct {
	alphaBeta
	frac float64
}

func (m jitterNet) jitter(v float64, rng *rand.Rand) float64 {
	return v * (1 + m.frac*(2*rng.Float64()-1))
}
func (m jitterNet) SendOverhead(b int, rng *rand.Rand) float64 {
	return m.jitter(m.alphaBeta.SendOverhead(b, rng), rng)
}
func (m jitterNet) RecvOverhead(b int, rng *rand.Rand) float64 {
	return m.jitter(m.alphaBeta.RecvOverhead(b, rng), rng)
}
func (m jitterNet) Transit(b int, rng *rand.Rand) float64 {
	return m.jitter(m.alphaBeta.Transit(b, rng), rng)
}
func (m jitterNet) ReduceCost(p, b int, rng *rand.Rand) float64 {
	return m.jitter(m.alphaBeta.ReduceCost(p, b, rng), rng)
}

// equivalenceMatrix runs prog on n ranks through every backend — the
// goroutine and event backends, the trace backend's recording run and two
// replays, and a replay of the recorded trace after encode→decode — and
// requires every rank's clock to match the goroutine backend bit for bit.
// Every backend prices ChargeParam/SendParam ops from the tables in p. It
// returns the recorded trace.
func equivalenceMatrix(t *testing.T, n int, opts Options, p ReplayParams, prog func(c *Comm) error) *Trace {
	t.Helper()
	run := func(sched string) *World {
		o := opts
		o.Scheduler = sched
		w, err := NewWorld(n, o)
		if err != nil {
			t.Fatal(err)
		}
		w.SetParams(p.Charges, p.Sizes)
		if err := w.Run(prog); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		return w
	}
	ref := run(SchedulerGoroutine)
	check := func(name string, clock func(int) float64) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got, want := clock(i), ref.Clock(i); got != want {
				t.Fatalf("%s: clock[%d] = %v, goroutine backend %v", name, i, got, want)
			}
		}
	}
	check("event", run(SchedulerEvent).Clock)
	tw := run(SchedulerTrace)
	check("trace recording", tw.Clock)
	for rep := 1; rep <= 2; rep++ {
		tw.Reset()
		if err := tw.Run(prog); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trace replay %d", rep), tw.Clock)
	}
	dec, err := DecodeTrace(tw.Trace().EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReplayer()
	if err := rp.Replay(dec, opts, p); err != nil {
		t.Fatal(err)
	}
	check("decoded trace", rp.Clock)
	return tw.Trace()
}

// linkMatrixOpts covers both replay loops: a deterministic flat net and a
// deterministic two-level class net take the fused loop, a jittering net
// with compute noise the instrumented one.
func linkMatrixOpts() map[string]Options {
	return map[string]Options{
		"det-flat":   {Net: detAlphaBeta{alphaBeta{alpha: 1e-5, beta: 2e-9}}},
		"det-hier":   {Net: testHierNets()["two-level"]},
		"jitter-rng": {Net: jitterNet{alphaBeta{alpha: 1e-5, beta: 2e-9}, 0.2}, Noise: jitterNoise{0.05}, Seed: 5},
	}
}

// TestTraceManyLinkClasses drives a trace with many link classes through
// the equivalence matrix: every rank of a 3-rank ring talks on 14 (source,
// tag) pairs, and the ring wrap doubles the relative offsets, so the trace
// carries 28 link classes. Receives run in reverse tag order, so a message
// landing in another tag's stream would be consumed out of turn.
func TestTraceManyLinkClasses(t *testing.T) {
	const n, tags = 3, 7
	prog := func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		for round := 0; round < 3; round++ {
			for tag := 0; tag < tags; tag++ {
				c.ChargeExact(1e-5 * float64(1+tag))
				c.SendN(next, tag, 64*(tag+1), nil)
				c.SendN(prev, 100+tag, 32*(tag+1), nil)
			}
			for tag := tags - 1; tag >= 0; tag-- {
				c.RecvN(prev, tag)
				c.RecvN(next, 100+tag)
			}
			c.Barrier()
		}
		return nil
	}
	for name, opts := range linkMatrixOpts() {
		t.Run(name, func(t *testing.T) {
			tr := equivalenceMatrix(t, n, opts, ReplayParams{}, prog)
			if got := tr.LinkClasses(); got != 4*tags {
				t.Fatalf("link classes = %d, want %d", got, 4*tags)
			}
		})
	}
}

// gatherProgram is an all-to-one gather: every rank but 0 sends to rank 0
// each iteration, and rank 0 receives from the highest rank down, so it
// blocks on one stream while deliveries land on the others.
func gatherProgram(iters int) func(c *Comm) error {
	return func(c *Comm) error {
		n := c.Size()
		for it := 0; it < iters; it++ {
			c.Charge(1e-4 * float64(1+c.Rank()%5))
			if c.Rank() == 0 {
				for src := n - 1; src > 0; src-- {
					c.RecvN(src, 3)
				}
			} else {
				c.SendN(0, 3, 64*c.Rank(), nil)
			}
			c.Barrier()
		}
		return nil
	}
}

// TestSchedulerEquivalenceGather puts the 64-rank gather through the
// equivalence matrix: rank 0 alone receives on 63 link classes.
func TestSchedulerEquivalenceGather(t *testing.T) {
	const n = 64
	for name, opts := range linkMatrixOpts() {
		t.Run(name, func(t *testing.T) {
			tr := equivalenceMatrix(t, n, opts, ReplayParams{}, gatherProgram(3))
			if got := tr.LinkClasses(); got != n-1 {
				t.Fatalf("link classes = %d, want %d", got, n-1)
			}
		})
	}
}

// paramWavefront is a px x py wavefront priced entirely through the
// parameter tables: each rank charges ChargeParam((ix+2*iy)%3) per step,
// so swapping tables changes which ranks are slow and reorders the
// schedule. The last iteration skips its collective, leaving final clocks
// that differ by rank.
func paramWavefront(px, py, iters int) func(c *Comm) error {
	return func(c *Comm) error {
		ix, iy := c.Rank()%px, c.Rank()/px
		for it := 0; it < iters; it++ {
			for _, sx := range []int{+1, -1} {
				for _, sy := range []int{+1, -1} {
					upX, downX := ix-sx, ix+sx
					upY, downY := iy-sy, iy+sy
					if upX >= 0 && upX < px {
						c.RecvN(iy*px+upX, 1)
					}
					if upY >= 0 && upY < py {
						c.RecvN(upY*px+ix, 2)
					}
					c.ChargeParam((ix + 2*iy) % 3)
					if downX >= 0 && downX < px {
						c.SendParam(iy*px+downX, 1, 0)
					}
					if downY >= 0 && downY < py {
						c.SendParam(downY*px+ix, 2, 1)
					}
				}
			}
			if it < iters-1 {
				c.AllreduceMax(0)
			}
		}
		return nil
	}
}

// TestSchedulerEquivalenceParamWavefront puts the parameter-priced
// wavefront through the equivalence matrix. Under the jitter-rng row its
// ChargeParam ops draw compute noise, the path every noisy perturbation
// scenario replays.
func TestSchedulerEquivalenceParamWavefront(t *testing.T) {
	const px, py = 4, 3
	p := ReplayParams{Charges: []float64{1e-4, 5e-4, 2e-4}, Sizes: []int{1200, 960}}
	for name, opts := range linkMatrixOpts() {
		t.Run(name, func(t *testing.T) {
			equivalenceMatrix(t, px*py, opts, p, paramWavefront(px, py, 3))
		})
	}
}

// TestTraceReplayZeroAllocsAcrossParams pins the stream table's reuse
// across cost tables: a warmed fused-path replayer alternating three
// charge/size tables, each of which finishes the ranks in a different
// order, makes no heap allocation per replay. The trace has too few generations for a
// steady cycle, so every replay runs in full.
func TestTraceReplayZeroAllocsAcrossParams(t *testing.T) {
	const px, py = 8, 8
	net := detAlphaBeta{alphaBeta{alpha: 1e-6, beta: 1e-9}}
	tables := []ReplayParams{
		{Charges: []float64{1e-4, 5e-4, 2e-4}, Sizes: []int{1200, 960}},
		{Charges: []float64{5e-4, 1e-4, 2e-4}, Sizes: []int{64, 50000}},
		{Charges: []float64{2e-4, 2e-4, 9e-4}, Sizes: []int{8000, 8}},
	}
	w, err := NewWorld(px*py, Options{Net: net, Scheduler: SchedulerEvent})
	if err != nil {
		t.Fatal(err)
	}
	w.SetParams(tables[0].Charges, tables[0].Sizes)
	tr, err := w.RunRecorded(paramWavefront(px, py, 4))
	if err != nil {
		t.Fatal(err)
	}
	if tr.CycleDetected() {
		t.Fatal("trace has a steady cycle; the test needs full replays")
	}
	rp := NewReplayer()
	opts := Options{Net: net}
	orders := make(map[string]bool)
	for _, p := range tables {
		if err := rp.Replay(tr, opts, p); err != nil {
			t.Fatal(err)
		}
		if !rp.fusedPath {
			t.Fatal("replay left the fused path")
		}
		ranks := make([]int, tr.Ranks())
		for i := range ranks {
			ranks[i] = i
		}
		sort.SliceStable(ranks, func(a, b int) bool { return rp.Clock(ranks[a]) < rp.Clock(ranks[b]) })
		orders[fmt.Sprint(ranks)] = true
	}
	if len(orders) != len(tables) {
		t.Fatalf("tables give %d distinct rank orders, want %d", len(orders), len(tables))
	}
	k := 0
	avg := testing.AllocsPerRun(30, func() {
		if err := rp.Replay(tr, opts, tables[k%len(tables)]); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if avg != 0 {
		t.Errorf("replay allocations across cost tables = %v per run, want 0", avg)
	}
}

// TestReplayRecordSizes pins the hot replay records: the per-rank
// scheduler record and the fused op.
func TestReplayRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(rrank{}); got != 32 {
		t.Errorf("rrank is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(fop{}); got > 48 {
		t.Errorf("fop is %d bytes, want <= 48", got)
	}
}

// BenchmarkTraceReplay measures the warmed Reset+Run replay cycle beside
// BenchmarkWorldReuseRun's event-backend numbers (same 8-rank, 800-op
// workload); ReportAllocs documents the zero-allocation steady state the
// CI gate holds.
func BenchmarkTraceReplay(b *testing.B) {
	w, err := NewWorld(8, Options{
		Net:       alphaBeta{alpha: 1e-6, beta: 1e-9},
		Seed:      7,
		Scheduler: SchedulerTrace,
	})
	if err != nil {
		b.Fatal(err)
	}
	prog := ringProgram(50)
	for i := 0; i < 2; i++ {
		if i > 0 {
			w.Reset()
		}
		if err := w.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := w.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(8*50*2), "msg_ops/op")
}
