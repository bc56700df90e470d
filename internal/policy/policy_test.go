package policy

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestApplyNoRules(t *testing.T) {
	e := NewEngine()
	out := e.Apply(Decision{Model: "m", Entity: "x", Score: 0.7})
	if out.Overridden || out.Denied || out.Final != 0.7 {
		t.Errorf("outcome = %+v", out)
	}
}

func TestCapMax(t *testing.T) {
	e := NewEngine()
	if err := e.AddRule(Rule{Name: "cap", Model: "tokens", CapMax: F(100), Reason: "user cap"}); err != nil {
		t.Fatal(err)
	}
	out := e.Apply(Decision{Model: "tokens", Entity: "job1", Score: 250})
	if out.Final != 100 || !out.Overridden || out.Policy != "cap" {
		t.Errorf("outcome = %+v", out)
	}
	out = e.Apply(Decision{Model: "tokens", Entity: "job2", Score: 50})
	if out.Final != 50 || out.Overridden {
		t.Errorf("under-cap outcome = %+v", out)
	}
	// Other models unaffected.
	out = e.Apply(Decision{Model: "other", Entity: "j", Score: 999})
	if out.Final != 999 {
		t.Errorf("other model clamped: %+v", out)
	}
}

func TestOverrideAndDeny(t *testing.T) {
	e := NewEngine()
	err := e.AddRule(Rule{
		Name: "floor-risky", Model: "loan",
		When:       func(d Decision) bool { return d.Attrs["debt_ratio"] > 0.8 },
		OverrideTo: F(0), Reason: "regulatory: high debt ratio",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{
		Name: "deny-sanctioned", Model: "loan",
		When: func(d Decision) bool { return d.Attrs["sanctioned"] == 1 },
		Deny: true, Reason: "sanctions list",
	}); err != nil {
		t.Fatal(err)
	}
	out := e.Apply(Decision{Model: "loan", Entity: "a1", Score: 0.9, Attrs: map[string]float64{"debt_ratio": 0.9}})
	if out.Final != 0 || !out.Overridden || out.Policy != "floor-risky" {
		t.Errorf("override outcome = %+v", out)
	}
	out = e.Apply(Decision{Model: "loan", Entity: "a2", Score: 0.9, Attrs: map[string]float64{"sanctioned": 1}})
	if !out.Denied {
		t.Errorf("deny outcome = %+v", out)
	}
	out = e.Apply(Decision{Model: "loan", Entity: "a3", Score: 0.9, Attrs: map[string]float64{}})
	if out.Overridden || out.Denied || out.Final != 0.9 {
		t.Errorf("clean outcome = %+v", out)
	}
}

func TestCapsCompose(t *testing.T) {
	e := NewEngine()
	if err := e.AddRule(Rule{Name: "boost", OverrideTo: F(500)}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{Name: "cap", CapMax: F(100)}); err != nil {
		t.Fatal(err)
	}
	out := e.Apply(Decision{Model: "m", Entity: "x", Score: 10})
	if out.Final != 100 {
		t.Errorf("caps should clamp earlier overrides: %+v", out)
	}
}

func TestDuplicateRule(t *testing.T) {
	e := NewEngine()
	if err := e.AddRule(Rule{Name: "r"}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{Name: "r"}); err == nil {
		t.Error("duplicate rule should error")
	}
	if err := e.AddRule(Rule{}); err == nil {
		t.Error("unnamed rule should error")
	}
}

func TestHistory(t *testing.T) {
	e := NewEngine()
	if err := e.AddRule(Rule{Name: "cap", CapMax: F(1)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e.Apply(Decision{Model: "m", Entity: "x", Score: float64(i)})
	}
	h := e.recent(3)
	if len(h) != 3 {
		t.Fatalf("history = %d", len(h))
	}
	if h[2].Decision.Score != 4 {
		t.Errorf("newest last: %+v", h[2].Decision)
	}
	if e.Overrides() != 3 { // scores 2,3,4 clamped; 0 and 1 not (1 == cap)
		t.Errorf("overrides = %d", e.Overrides())
	}
}

func TestTransactRollback(t *testing.T) {
	var applied []string
	step := func(name string, fail bool) Step {
		return Step{
			Name: name,
			Do: func() error {
				if fail {
					return errors.New("boom")
				}
				applied = append(applied, name)
				return nil
			},
			Undo: func() error {
				for i, a := range applied {
					if a == name {
						applied = append(applied[:i], applied[i+1:]...)
						break
					}
				}
				return nil
			},
		}
	}
	err := Transact([]Step{step("a", false), step("b", false), step("c", true)})
	if err == nil {
		t.Fatal("expected failure")
	}
	if len(applied) != 0 {
		t.Errorf("rollback incomplete: %v", applied)
	}
	if err := Transact([]Step{step("a", false), step("b", false)}); err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 {
		t.Errorf("applied = %v", applied)
	}
}

func TestApplyBatch(t *testing.T) {
	e := NewEngine()
	if err := e.AddRule(Rule{Name: "deny-neg", When: func(d Decision) bool { return d.Score < 0 }, Deny: true}); err != nil {
		t.Fatal(err)
	}
	var acted []string
	outcomes, err := e.ApplyBatch(
		[]Decision{
			{Model: "m", Entity: "a", Score: 1},
			{Model: "m", Entity: "b", Score: -1}, // denied, skipped
			{Model: "m", Entity: "c", Score: 2},
		},
		func(o Outcome) error { acted = append(acted, o.Decision.Entity); return nil },
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(acted) != 2 || acted[0] != "a" || acted[1] != "c" {
		t.Errorf("acted = %v", acted)
	}
	if !outcomes[1].Denied {
		t.Error("decision b should be denied")
	}
}

func TestApplyBatchRollsBack(t *testing.T) {
	e := NewEngine()
	var acted []string
	_, err := e.ApplyBatch(
		[]Decision{
			{Model: "m", Entity: "a", Score: 1},
			{Model: "m", Entity: "b", Score: 2},
		},
		func(o Outcome) error {
			if o.Decision.Entity == "b" {
				return errors.New("downstream failure")
			}
			acted = append(acted, o.Decision.Entity)
			return nil
		},
		func(o Outcome) error {
			for i, a := range acted {
				if a == o.Decision.Entity {
					acted = append(acted[:i], acted[i+1:]...)
				}
			}
			return nil
		},
	)
	if err == nil {
		t.Fatal("expected batch failure")
	}
	if len(acted) != 0 {
		t.Errorf("rollback incomplete: %v", acted)
	}
}

// Property: a CapMax/CapMin pair always produces a final value within
// [min, max] (when min <= max), and is idempotent: applying the same
// decision twice yields the same final value.
func TestCapBoundsProperty(t *testing.T) {
	f := func(score float64, a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		if score != score || a != a || b != b { // NaN
			return true
		}
		e := NewEngine()
		if err := e.AddRule(Rule{Name: "max", CapMax: &b}); err != nil {
			return false
		}
		if err := e.AddRule(Rule{Name: "min", CapMin: &a}); err != nil {
			return false
		}
		o1 := e.Apply(Decision{Model: "m", Entity: "x", Score: score})
		o2 := e.Apply(Decision{Model: "m", Entity: "x", Score: score})
		return o1.Final >= a && o1.Final <= b && o1.Final == o2.Final
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
