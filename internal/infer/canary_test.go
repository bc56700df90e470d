package infer

import (
	"context"
	"testing"

	"repro/internal/fault"
)

// scoreN drives n two-row batches of varied values through the plane,
// resolving the serving graph like the engine would.
func scoreN(t *testing.T, p *Plane, model string, n int) {
	t.Helper()
	reg := p.reg
	g, err := reg.GraphFor(model)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b := batchOf(float64(i%50)/50.0, float64((i+7)%50)/50.0)
		out := make([]float64, b.N)
		if err := p.Score(context.Background(), model, g, b, out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCanaryAutoPromotes: a candidate that agrees with the serving model
// passes the gate once enough mirrored traffic accumulates, and the
// Promote callback fires.
func TestCanaryAutoPromotes(t *testing.T) {
	reg := newFakeRegistry()
	serving := linGraph(1, 0)
	candidate := linGraph(1, 0.001) // nearly identical
	reg.redeploy("m", serving)
	reg.addVersion("m", 2, candidate)

	var promoted []string
	p := New(reg, Config{
		CacheSize:        -1, // every row must reach the backend and mirror
		CanaryMinSamples: 100,
		Promote: func(model string, version int) error {
			promoted = append(promoted, model)
			reg.redeploy(model, candidate)
			return nil
		},
	})
	defer p.Close()

	if _, err := p.Deploy("m", 2, StageCanary); err != nil {
		t.Fatal(err)
	}
	scoreN(t, p, "m", 80)
	deps := p.Deployments()
	if len(deps) != 1 || deps[0].Stage != StagePromoted.String() {
		t.Fatalf("deployment state %+v, want promoted", deps)
	}
	if len(promoted) != 1 {
		t.Fatalf("promote callback fired %d times, want 1", len(promoted))
	}
	if deps[0].Samples < 100 {
		t.Fatalf("gate acted on %d samples, below minimum", deps[0].Samples)
	}
}

// TestCanaryAutoRollsBackDriftedCandidate: a candidate scoring a shifted
// distribution fails the PSI/agreement gate and is rolled back, with no
// promotion.
func TestCanaryAutoRollsBackDriftedCandidate(t *testing.T) {
	reg := newFakeRegistry()
	reg.redeploy("m", linGraph(1, 0))
	reg.addVersion("m", 2, linGraph(1, 0.6)) // systematically shifted

	promoted := 0
	p := New(reg, Config{
		CacheSize:        -1,
		CanaryMinSamples: 100,
		Promote:          func(string, int) error { promoted++; return nil },
	})
	defer p.Close()

	if _, err := p.Deploy("m", 2, StageCanary); err != nil {
		t.Fatal(err)
	}
	scoreN(t, p, "m", 80)
	deps := p.Deployments()
	if deps[0].Stage != StageRolledBack.String() {
		t.Fatalf("deployment state %+v, want rolled-back", deps[0])
	}
	if promoted != 0 {
		t.Fatal("drifted candidate was promoted")
	}
	if deps[0].Agreement <= 0.05 {
		t.Fatalf("agreement %v does not reflect the drift", deps[0].Agreement)
	}
	if p.Gauges()["flock_infer_rollbacks_total"] != 1 {
		t.Fatal("rollback not counted")
	}
}

// TestCanaryFaultForcesRollback: the infer.canary failpoint skews the
// candidate's mirrored scores, so even an identical candidate drifts and
// the gate rolls it back — the chaos drill the CI canary-smoke job runs.
func TestCanaryFaultForcesRollback(t *testing.T) {
	defer fault.Reset()
	fault.Enable("infer.canary", fault.Spec{})

	reg := newFakeRegistry()
	serving := linGraph(1, 0)
	reg.redeploy("m", serving)
	reg.addVersion("m", 2, serving) // identical candidate

	p := New(reg, Config{
		CacheSize:        -1,
		CanaryMinSamples: 100,
		Promote:          func(string, int) error { t.Fatal("promoted under drift"); return nil },
	})
	defer p.Close()

	if _, err := p.Deploy("m", 2, StageCanary); err != nil {
		t.Fatal(err)
	}
	scoreN(t, p, "m", 80)
	deps := p.Deployments()
	if deps[0].Stage != StageRolledBack.String() {
		t.Fatalf("deployment state %+v, want rolled-back under infer.canary", deps[0])
	}
}

// TestShadowObservesWithoutActing: shadow stage accumulates the same stats
// but never promotes or rolls back on its own; manual promotion applies it.
func TestShadowObservesWithoutActing(t *testing.T) {
	reg := newFakeRegistry()
	reg.redeploy("m", linGraph(1, 0))
	reg.addVersion("m", 2, linGraph(1, 0.9)) // badly drifted

	promoted := 0
	p := New(reg, Config{
		CacheSize:        -1,
		CanaryMinSamples: 50,
		Promote:          func(string, int) error { promoted++; return nil },
	})
	defer p.Close()

	if _, err := p.Deploy("m", 2, StageShadow); err != nil {
		t.Fatal(err)
	}
	scoreN(t, p, "m", 100)
	st := p.Deployments()[0]
	if st.Stage != StageShadow.String() {
		t.Fatalf("shadow stage acted on its own: %+v", st)
	}
	if st.Samples == 0 || st.Agreement == 0 {
		t.Fatalf("shadow stage collected no evidence: %+v", st)
	}

	// Manual rollback always wins, no matter the stats.
	if _, err := p.RollbackCandidate("m"); err != nil {
		t.Fatal(err)
	}
	if p.Deployments()[0].Stage != StageRolledBack.String() {
		t.Fatal("manual rollback did not apply")
	}
	// A rolled-back candidate is not promotable.
	if _, err := p.PromoteCandidate("m"); err == nil {
		t.Fatal("promoted a rolled-back candidate")
	}
	if promoted != 0 {
		t.Fatal("promote callback fired")
	}
}

// TestManualPromotion promotes a shadow candidate by hand.
func TestManualPromotion(t *testing.T) {
	reg := newFakeRegistry()
	reg.redeploy("m", linGraph(1, 0))
	reg.addVersion("m", 2, linGraph(1, 0))

	promoted := 0
	p := New(reg, Config{Promote: func(string, int) error { promoted++; return nil }})
	defer p.Close()

	if _, err := p.Deploy("m", 2, StageShadow); err != nil {
		t.Fatal(err)
	}
	st, err := p.PromoteCandidate("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Stage != StagePromoted.String() || promoted != 1 {
		t.Fatalf("manual promotion: %+v, callback %d", st, promoted)
	}
}

// TestDeployUnknownVersion errors cleanly.
func TestDeployUnknownVersion(t *testing.T) {
	reg := newFakeRegistry()
	reg.redeploy("m", linGraph(1, 0))
	p := New(reg, Config{})
	defer p.Close()
	if _, err := p.Deploy("m", 9, StageCanary); err == nil {
		t.Fatal("deploying an unregistered version succeeded")
	}
	if _, err := p.Deploy("m", 1, StagePromoted); err == nil {
		t.Fatal("deploying directly to promoted succeeded")
	}
}
