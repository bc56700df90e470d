// Loan approval: the regulated-industry scenario from the paper's
// enterprise conversations — "a financial institution seeking to streamline
// its loan approval process". Shows the governance stack end to end:
// role-based access to tables AND models, policy rules that override model
// predictions under business constraints, denial auditing, and the
// tamper-evident audit chain.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/governance"
	"repro/internal/ml"
	"repro/internal/policy"
)

func main() {
	flock, err := core.New()
	if err != nil {
		log.Fatal(err)
	}
	flock.Access.AssignRole("dba", "admin")

	// Applicant data with sensitive columns.
	mustExec(flock, "dba", `CREATE TABLE applications
		(id int, income float, debt float, years_employed float, region text, sanctioned int)`)
	mustExec(flock, "dba", `INSERT INTO applications VALUES
		(101, 95000.0, 12000.0, 8.0, 'us-east', 0),
		(102, 43000.0, 39000.0, 1.5, 'eu-north', 0),
		(103, 120000.0, 20000.0, 12.0, 'us-east', 1),
		(104, 67000.0, 15000.0, 4.0, 'latam', 0)`)

	// Train the approval model on synthetic history.
	pipe := trainApprovalModel()
	if _, err := flock.DeployPipeline("dba", "loan_approval", pipe, core.TrainingInfo{
		Script: "loan_train.go", Tables: []string{"applications"},
	}); err != nil {
		log.Fatal(err)
	}

	// Least-privilege roles: loan officers may score but not read raw
	// sanctions data via ad-hoc SQL; auditors may read the audit trail.
	flock.Access.Grant("loan-officer", governance.ActSelect, governance.TableObject("applications"))
	flock.Access.Grant("loan-officer", governance.ActScore, governance.ModelObject("loan_approval"))
	flock.Access.AssignRole("olivia", "loan-officer")

	// An intern without grants is denied — and the denial is audited.
	if _, err := flock.Exec("intern", "SELECT * FROM applications"); err != nil {
		fmt.Printf("intern denied as expected: %v\n", err)
	}

	// Business policies that sit between model and decision (§4.1):
	must(flock.Policies.AddRule(policy.Rule{
		Name: "deny-sanctioned", Model: "loan_approval",
		When: func(d policy.Decision) bool { return d.Attrs["sanctioned"] == 1 },
		Deny: true, Reason: "compliance: sanctions screening",
	}))
	must(flock.Policies.AddRule(policy.Rule{
		Name: "cap-high-debt", Model: "loan_approval",
		When:   func(d policy.Decision) bool { return d.Attrs["debt_ratio"] > 0.5 },
		CapMax: policy.F(0.40), Reason: "risk: debt-to-income above 50%",
	}))

	// Score each application through the governed model-to-decision path.
	apps, err := flock.Exec("olivia",
		"SELECT id, income, debt, sanctioned FROM applications ORDER BY id")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nloan decisions:")
	c := apps.Cols
	for i := range apps.N {
		id, income, debt := c[0].Ints[i], c[1].Floats[i], c[2].Floats[i]
		sanctioned := float64(c[3].Ints[i])
		q := fmt.Sprintf(`SELECT PREDICT(loan_approval, income, debt, years_employed, region) AS s
			FROM applications WHERE id = %d`, id)
		outcome, err := flock.Decide("olivia", "loan_approval", q,
			fmt.Sprintf("app-%d", id),
			map[string]float64{"debt_ratio": debt / income, "sanctioned": sanctioned})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "REJECT"
		if outcome.Denied {
			verdict = "BLOCKED"
		} else if outcome.Final >= 0.5 {
			verdict = "APPROVE"
		}
		fmt.Printf("  app-%d: model=%.3f final=%.3f %-8s", id, outcome.Decision.Score, outcome.Final, verdict)
		if outcome.Policy != "" {
			fmt.Printf(" [policy %s: %s]", outcome.Policy, outcome.Reason)
		}
		fmt.Println()
	}

	// The decision history supports end-to-end accountability.
	fmt.Printf("\npolicy overrides so far: %d\n", flock.Policies.Overrides())
	fmt.Printf("audit chain intact: %t (%d entries)\n",
		flock.Audit.Verify() == -1, flock.Audit.Len())
	for _, e := range flock.Audit.Entries() {
		if !e.Allowed {
			fmt.Printf("  audited denial: user=%s object=%s\n", e.User, e.Object)
		}
	}
}

func trainApprovalModel() *ml.Pipeline {
	r := ml.NewRand(3)
	n := 3000
	income := make([]float64, n)
	debt := make([]float64, n)
	years := make([]float64, n)
	region := make([]string, n)
	y := make([]float64, n)
	names := []string{"us-east", "eu-north", "apac", "latam"}
	for i := 0; i < n; i++ {
		income[i] = 25000 + r.Float64()*150000
		debt[i] = r.Float64() * 60000
		years[i] = r.Float64() * 20
		region[i] = names[r.Intn(4)]
		score := (income[i]-80000)/50000 - (debt[i]/income[i])*2 + years[i]/10
		if score > 0 {
			y[i] = 1
		}
	}
	f := ml.NewFrame().
		AddNumeric("income", income).
		AddNumeric("debt", debt).
		AddNumeric("years_employed", years).
		AddCategorical("region", region)
	p := ml.NewPipeline("loan_approval",
		ml.NewFeaturizer().
			With("income", &ml.StandardScaler{}).
			With("debt", &ml.StandardScaler{}).
			With("years_employed", &ml.StandardScaler{}).
			With("region", &ml.OneHotEncoder{}),
		&ml.GradientBoosting{NTrees: 50, MaxDepth: 3, Loss: ml.LossLogistic})
	if err := p.Fit(f, y); err != nil {
		log.Fatal(err)
	}
	return p
}

func mustExec(f *core.Flock, user, q string) {
	if _, err := f.Exec(user, q); err != nil {
		log.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
