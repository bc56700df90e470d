// Package policy bridges the model-application divide (§4.1): business
// rules and constraints are declared as policies that sit between a model's
// raw prediction and the action taken in the application domain. The engine
// continuously applies policies to model outputs, can override predictions,
// keeps a decision history for debugging and end-to-end accountability, and
// applies batches of actions transactionally with rollback on failure —
// the generic, extensible module of [28] (Dhalion) specialized to EGML.
package policy

import (
	"fmt"
	"sync"
	"time"
)

// Decision is one model output awaiting a policy pass before it becomes an
// action. Attrs carries application-domain context rules can reference.
type Decision struct {
	Model  string
	Entity string // what the decision is about (job id, customer id, ...)
	Score  float64
	Attrs  map[string]float64
}

// Outcome is the policy engine's verdict on a decision.
type Outcome struct {
	Decision   Decision
	Final      float64 // possibly adjusted score / value
	Overridden bool
	Denied     bool // the action must not be taken at all
	Policy     string
	Reason     string
	At         time.Time
}

// Rule is a single declarative policy. Rules apply in registration order;
// the first rule that fires determines Overridden/Denied attribution, but
// caps compose (a later cap still clamps an earlier override).
type Rule struct {
	// Name identifies the rule in outcomes and the history.
	Name string
	// Model restricts the rule to one model ("" applies to all).
	Model string

	// When, if set, gates the rule on the decision.
	When func(Decision) bool

	// CapMax clamps the final value from above when set.
	CapMax *float64
	// CapMin clamps the final value from below when set.
	CapMin *float64
	// OverrideTo replaces the value entirely when set (subject to When).
	OverrideTo *float64
	// Deny blocks the action entirely (e.g. regulatory constraints).
	Deny bool
	// Reason documents the business constraint for auditability.
	Reason string
}

// F is a convenience for building *float64 rule fields.
func F(v float64) *float64 { return &v }

// Engine applies policies and keeps the decision history.
type Engine struct {
	mu      sync.Mutex
	rules   []Rule
	history []Outcome
	maxHist int
}

// NewEngine returns an engine with a bounded history (default 4096).
func NewEngine() *Engine { return &Engine{maxHist: 4096} }

// AddRule registers a policy rule. Rules are user-defined and can encode
// "various business constraints on top of EGML workloads".
func (e *Engine) AddRule(r Rule) error {
	if r.Name == "" {
		return fmt.Errorf("policy: rule needs a name")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, existing := range e.rules {
		if existing.Name == r.Name {
			return fmt.Errorf("policy: duplicate rule %q", r.Name)
		}
	}
	e.rules = append(e.rules, r)
	return nil
}

// Apply runs the decision through all applicable rules and records the
// outcome in the history.
func (e *Engine) Apply(d Decision) Outcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Outcome{Decision: d, Final: d.Score, At: time.Now()}
	for _, r := range e.rules {
		if r.Model != "" && r.Model != d.Model {
			continue
		}
		if r.When != nil && !r.When(d) {
			continue
		}
		fired := false
		if r.Deny {
			out.Denied = true
			fired = true
		}
		if r.OverrideTo != nil && !out.Denied {
			out.Final = *r.OverrideTo
			fired = true
		}
		if r.CapMax != nil && out.Final > *r.CapMax {
			out.Final = *r.CapMax
			fired = true
		}
		if r.CapMin != nil && out.Final < *r.CapMin {
			out.Final = *r.CapMin
			fired = true
		}
		if fired {
			out.Overridden = out.Overridden || out.Final != d.Score || out.Denied
			if out.Policy == "" {
				out.Policy = r.Name
				out.Reason = r.Reason
			}
		}
		if out.Denied {
			break
		}
	}
	e.recordLocked(out)
	return out
}

func (e *Engine) recordLocked(o Outcome) {
	e.history = append(e.history, o)
	if len(e.history) > e.maxHist {
		e.history = e.history[len(e.history)-e.maxHist:]
	}
}

// History returns the most recent n outcomes (all when n <= 0), newest
// last — the state that lets operators "easily debug and explain the
// system's actions".
func (e *Engine) History(n int) []Outcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n <= 0 || n > len(e.history) {
		n = len(e.history)
	}
	return append([]Outcome(nil), e.history[len(e.history)-n:]...)
}

// Overrides counts the historical outcomes where a policy changed or
// denied the model's prediction.
func (e *Engine) Overrides() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, o := range e.history {
		if o.Overridden {
			n++
		}
	}
	return n
}

// Step is one transactional action: Do applies it, Undo compensates.
type Step struct {
	Name string
	Do   func() error
	Undo func() error
}

// Transact applies steps in order; if any step fails, the already-applied
// steps are undone in reverse order and the first error is returned
// (wrapped). This is the "actions happen in a transactional way, rolling
// back in case of failures" guarantee.
func Transact(steps []Step) error {
	for i, s := range steps {
		if err := s.Do(); err != nil {
			for j := i - 1; j >= 0; j-- {
				if steps[j].Undo != nil {
					// Compensation errors are unrecoverable by the engine;
					// surface the original failure regardless.
					_ = steps[j].Undo()
				}
			}
			return fmt.Errorf("policy: step %q failed (rolled back %d prior steps): %w", s.Name, i, err)
		}
	}
	return nil
}

// ApplyBatch runs a set of decisions through the engine and executes the
// resulting allowed actions transactionally: act is invoked per outcome,
// undo compensates. Denied outcomes are skipped (not errors).
func (e *Engine) ApplyBatch(decisions []Decision, act func(Outcome) error, undo func(Outcome) error) ([]Outcome, error) {
	outcomes := make([]Outcome, len(decisions))
	var steps []Step
	for i, d := range decisions {
		outcomes[i] = e.Apply(d)
		if outcomes[i].Denied {
			continue
		}
		o := outcomes[i]
		steps = append(steps, Step{
			Name: fmt.Sprintf("%s/%s", o.Decision.Model, o.Decision.Entity),
			Do:   func() error { return act(o) },
			Undo: func() error {
				if undo == nil {
					return nil
				}
				return undo(o)
			},
		})
	}
	if err := Transact(steps); err != nil {
		return outcomes, err
	}
	return outcomes, nil
}
