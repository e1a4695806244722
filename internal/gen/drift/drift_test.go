package drift_test

import (
	"testing"

	"repro/internal/cfd"
	"repro/internal/detect"
	"repro/internal/gen/drift"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// driftMonitor builds a monitor over a clean drift base with the drift
// workload's Σ = {ϕ1, ϕ2} (ϕ3 is excluded by design; see drift.go).
func driftMonitor(t *testing.T, n int) *detect.ShardedDBMonitor {
	t.Helper()
	in := drift.Customers(n, 1)
	s := in.Schema()
	db := relation.NewDatabase()
	db.Add(in)
	cs := detect.WrapCFDs([]*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)})
	m := detect.NewDBMonitor(nil, db, cs)
	if got := len(m.Violations()); got != 0 {
		t.Fatalf("clean drift base has %d violations, want 0", got)
	}
	return m
}

// TestDriftGroundTruth: each batch's gained count equals exactly its
// number of violating ops (one ϕ2 violation each, nothing cleared, no
// ϕ1/ϕ3 cross-talk) — the property the change-point tests rely on.
func TestDriftGroundTruth(t *testing.T) {
	m := driftMonitor(t, 200)
	batches := drift.Batches(drift.Config{
		Seed: 7, Batches: 40, OpsPerBatch: 25,
		BaseRate: 0.2, ChangeAt: 20, Factor: 8,
	})
	// Replay the same RNG decisions: count violating ops per batch by
	// the city each insert carries.
	for b, ops := range batches {
		wantGained := 0
		for _, op := range ops {
			if op.Op.Kind != detect.OpInsert {
				t.Fatalf("batch %d: op kind %v, want insert", b, op.Op.Kind)
			}
			if op.Op.Tuple[5].StrVal() == "NYC" {
				wantGained++
			}
		}
		gained, cleared, err := m.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if len(cleared) != 0 {
			t.Fatalf("batch %d: cleared %d violations, want 0", b, len(cleared))
		}
		if len(gained) != wantGained {
			t.Fatalf("batch %d: gained %d violations, want %d", b, len(gained), wantGained)
		}
	}
}

// TestDriftStepChangesRate: the post-change mean gained rate must be
// several times the pre-change mean (the 8× step with sampling noise).
func TestDriftStepChangesRate(t *testing.T) {
	m := driftMonitor(t, 100)
	const changeAt = 30
	batches := drift.Batches(drift.Config{
		Seed: 3, Batches: 60, OpsPerBatch: 40,
		BaseRate: 0.1, ChangeAt: changeAt, Factor: 8,
	})
	var pre, post int
	for b, ops := range batches {
		gained, _, err := m.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		if b < changeAt {
			pre += len(gained)
		} else {
			post += len(gained)
		}
	}
	preRate := float64(pre) / changeAt
	postRate := float64(post) / (60 - changeAt)
	if postRate < 4*preRate {
		t.Errorf("post-change rate %.2f not >> pre-change rate %.2f", postRate, preRate)
	}
}

// TestDriftGradualRamps: under Gradual the post-ramp rate reaches the
// factor; the stream stays deterministic per seed.
func TestDriftGradualRamps(t *testing.T) {
	cfg := drift.Config{
		Seed: 5, Batches: 80, OpsPerBatch: 40,
		BaseRate: 0.1, ChangeAt: 30, Factor: 8, Gradual: true, RampBatches: 20,
	}
	a := drift.Batches(cfg)
	b := drift.Batches(cfg)
	if len(a) != len(b) {
		t.Fatal("nondeterministic batch count")
	}
	count := func(batches [][]detect.DBOp, from, to int) int {
		n := 0
		for _, ops := range batches[from:to] {
			for _, op := range ops {
				if op.Op.Tuple[5].StrVal() == "NYC" {
					n++
				}
			}
		}
		return n
	}
	if count(a, 0, 80) != count(b, 0, 80) {
		t.Error("nondeterministic violation placement")
	}
	early := count(a, 0, 30)           // flat at BaseRate
	mid := count(a, 30, 50)            // ramping
	late := count(a, 50, 80)           // flat at BaseRate*Factor
	earlyRate := float64(early) / 30.0 // per batch
	midRate := float64(mid) / 20.0
	lateRate := float64(late) / 30.0
	if !(earlyRate < midRate && midRate < lateRate) {
		t.Errorf("rates not ramping: early %.2f, mid %.2f, late %.2f", earlyRate, midRate, lateRate)
	}
	if lateRate < 4*earlyRate {
		t.Errorf("ramp never reached the factor: early %.2f, late %.2f", earlyRate, lateRate)
	}
}
