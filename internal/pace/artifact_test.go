package pace

import (
	"errors"
	"testing"

	"pacesweep/internal/artifact"
	"pacesweep/internal/mp"
)

// withStore attaches a fresh artifact store under t.TempDir and guarantees
// detachment and a cold trace cache around the test, so the process-global
// hooks never leak into other tests.
func withStore(t *testing.T) *artifact.Store {
	t.Helper()
	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	FlushTraceCache()
	SetArtifactStore(s)
	t.Cleanup(func() {
		SetArtifactStore(nil)
		FlushTraceCache()
	})
	return s
}

// TestArtifactWarmPredict is the in-process cold-vs-warm restart: a first
// predict compiles and persists its artifacts; after dropping every
// in-memory cache (a simulated restart), the same predict must be served
// from the store — no new writes, store hits recorded — and be
// bit-identical to the cold result.
func TestArtifactWarmPredict(t *testing.T) {
	s := withStore(t)
	cfg := paperConfig(2, 2)

	cold, err := testEvaluator(t).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Writes == 0 {
		t.Fatal("cold predict persisted no artifacts")
	}
	if keys, _ := s.Keys(artifact.KindTrace); len(keys) != 1 {
		t.Fatalf("trace artifacts = %v, want exactly one", keys)
	}

	// "Restart": fresh evaluator (fresh kernel cache), cold trace cache.
	FlushTraceCache()
	warm, err := testEvaluator(t).Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *warm != *cold {
		t.Fatalf("warm prediction differs from cold:\n warm %+v\n cold %+v", warm, cold)
	}
	wst := s.Stats()
	if wst.Hits == st.Hits {
		t.Fatal("warm predict did not load from the store")
	}
	if wst.Writes != st.Writes {
		t.Fatalf("warm predict wrote %d new artifacts", wst.Writes-st.Writes)
	}
	if wst.Decode.Count == 0 {
		t.Fatal("warm predict recorded no decode latency")
	}
}

// TestArtifactCorruptionFallsBack pins that a poisoned artifact directory
// degrades to live compilation instead of failing the prediction — and
// that the corrupt trace is quarantined, so the key refills with a good
// artifact instead of re-failing the decode on every restart. A trace
// stamped with a retired codec version (v1, which predates the cycle
// block) takes the same clean-miss path.
func TestArtifactCorruptionFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		poison func(good []byte) []byte
	}{
		{"garbage", func([]byte) []byte { return []byte("not an artifact") }},
		{"v1-stamped", func(good []byte) []byte {
			// Re-wrap the current payload under version 1 with a valid
			// checksum: only the version stamp is stale. The envelope is
			// an 18-byte header (magic, version, length) and an 8-byte
			// checksum trailer.
			e := artifact.NewEncoder(string(good[:8]), 1)
			for _, b := range good[18 : len(good)-8] {
				e.U8(b)
			}
			return e.Finish()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := withStore(t)
			cfg := paperConfig(2, 2)
			cold, err := testEvaluator(t).Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			keys, err := s.Keys(artifact.KindTrace)
			if err != nil || len(keys) != 1 {
				t.Fatalf("trace keys %v, err %v", keys, err)
			}
			good, err := s.Get(artifact.KindTrace, keys[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(artifact.KindTrace, keys[0], tc.poison(good)); err != nil {
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
			// The bad artifact was moved aside, not left to poison every load.
			if st := s.Stats(); st.Quarantined != 1 {
				t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
			}
			if _, err := s.Get(artifact.KindTrace, keys[0]); !errors.Is(err, artifact.ErrNotFound) {
				t.Fatalf("bad trace still served after quarantine: err = %v", err)
			}

			// The next restart's miss re-publishes a good artifact under the
			// key and decodes it cleanly — the store healed itself.
			FlushTraceCache()
			again, err := testEvaluator(t).Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *again != *cold {
				t.Fatalf("post-heal prediction differs: %+v != %+v", again, cold)
			}
			healed, err := s.Get(artifact.KindTrace, keys[0])
			if err != nil {
				t.Fatalf("healed trace artifact missing: %v", err)
			}
			if _, err := mp.DecodeTrace(healed); err != nil {
				t.Fatalf("healed trace artifact does not decode at v%d: %v", mp.TraceCodecVersion, err)
			}
			if st := s.Stats(); st.Quarantined != 1 {
				t.Fatalf("Quarantined after heal = %d, want still 1", st.Quarantined)
			}
		})
	}
}

// TestKernelArtifactRoundTrip pins the kernel codec directly: the priced
// tables survive encode→decode exactly, and corruption is refused.
func TestKernelArtifactRoundTrip(t *testing.T) {
	e := testEvaluator(t)
	k, err := e.buildKernel(paperConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	data := encodeKernel(k)
	got, err := decodeKernel(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.nab != k.nab || got.nkb != k.nkb || got.src != k.src ||
		got.ferr != k.ferr || got.fullBlock != k.fullBlock {
		t.Fatalf("decoded kernel scalars differ: %+v != %+v", got, k)
	}
	for i := range k.charges {
		if got.charges[i] != k.charges[i] {
			t.Fatalf("charge[%d] %v != %v", i, got.charges[i], k.charges[i])
		}
	}
	for i := range k.sizes {
		if got.sizes[i] != k.sizes[i] {
			t.Fatalf("size[%d] %v != %v", i, got.sizes[i], k.sizes[i])
		}
	}
	if _, err := decodeKernel(data[:len(data)-1]); !errors.Is(err, artifact.ErrChecksum) {
		t.Fatalf("truncated kernel: err = %v, want ErrChecksum", err)
	}
	// A structurally valid but layout-inconsistent kernel is refused.
	bad := *k
	bad.charges = k.charges[:len(k.charges)-1]
	if _, err := decodeKernel(encodeKernel(&bad)); !errors.Is(err, artifact.ErrFormat) {
		t.Fatalf("inconsistent kernel: err = %v, want ErrFormat", err)
	}
}

// TestOpcodeKernelsNotPersisted pins the persistence exclusion: opcode
// cost tables are outside the model fingerprint, so opcode-costed kernels
// must never be written to (or read from) the shared store.
func TestOpcodeKernelsNotPersisted(t *testing.T) {
	s := withStore(t)
	e := testEvaluator(t)
	e.UseOpcodeCosts = true
	if _, err := e.Predict(paperConfig(2, 2)); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.Keys(artifact.KindKernel); len(keys) != 0 {
		t.Fatalf("opcode kernels persisted: %v", keys)
	}
}
