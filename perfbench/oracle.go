package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"pacesweep/internal/experiments"
	"pacesweep/internal/grid"
	"pacesweep/internal/mp"
	"pacesweep/internal/pace"
	"pacesweep/internal/platform"
)

// profileGrid and fitSeed are paceserve's defaults for fitting a
// platform's hardware model; the oracle fits the same model in-process.
var profileGrid = grid.Global{NX: 50, NY: 50, NZ: 50}

const fitSeed = 1001

// oracle holds in-process evaluators fitted exactly as paceserve fits
// them, used to re-derive check-phase responses independently of the
// server: template predictions on the event backend, perturbation and
// resilience reports through their packages.
type oracle struct {
	mu    sync.Mutex
	evals map[string]*pace.Evaluator
}

func newOracle() *oracle { return &oracle{evals: map[string]*pace.Evaluator{}} }

// evaluator returns the platform's fitted evaluator on the trace tier,
// with no prediction memo.
func (or *oracle) evaluator(name string) (*pace.Evaluator, error) {
	or.mu.Lock()
	defer or.mu.Unlock()
	if ev, ok := or.evals[name]; ok {
		return ev, nil
	}
	pl, err := platform.ByName(name)
	if err != nil {
		return nil, err
	}
	ev, _, err := experiments.BuildEvaluator(pl, profileGrid, fitSeed)
	if err != nil {
		return nil, err
	}
	or.evals[name] = ev
	return ev, nil
}

// eventEvaluator is the platform's evaluator forced onto the live event
// backend: an independent path to the same clocks the trace tier
// replays.
func (or *oracle) eventEvaluator(name string) (*pace.Evaluator, error) {
	ev, err := or.evaluator(name)
	if err != nil {
		return nil, err
	}
	cp := *ev
	cp.Scheduler = mp.SchedulerEvent
	cp.Memo = nil
	return &cp, nil
}

// sameFloat compares two float64s bit for bit.
func sameFloat(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: server %v, in-process %v", what, got, want)
	}
	return nil
}

// sameJSON compares a response fragment with an in-process value after
// compacting both.
func sameJSON(what string, raw json.RawMessage, want any) error {
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, raw); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := json.Compact(&b, wb); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("%s: server and in-process reports differ", what)
	}
	return nil
}

// digestFile holds the expected check-pass digest per workload and seed.
const digestFile = "perfbench/digests.json"

// checkDigest compares the run's digest with the recorded one for this
// workload and seed, when one is recorded; a mismatch is a check failure.
func checkDigest(workload string, seed int64, digest string, res *result) {
	data, err := os.ReadFile(filepath.FromSlash(digestFile))
	if err != nil {
		res.info["digest_checked"] = false
		return
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(data, &all); err != nil {
		res.count("check", fmt.Errorf("%s: %w", digestFile, err))
		return
	}
	want, ok := all[workload][fmt.Sprint(seed)]
	res.info["digest_checked"] = ok
	if !ok {
		return
	}
	if want != digest {
		res.count("check", fmt.Errorf("output digest %s, recorded %s", digest, want))
		return
	}
	res.count("check", nil)
}
