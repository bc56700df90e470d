// Healthcare: the paper's motivating regulated scenario — "ML models may
// be trained on sensitive medical data, and make predictions that determine
// patient treatments". Shows the provenance story end to end: a Python
// training script is statically analyzed and linked into the catalog, the
// model is deployed and scored in-DB, lineage is traced from a scoring
// query all the way back to the training tables, and a schema change
// triggers impact analysis over the affected models.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/governance"
	"repro/internal/ml"
	"repro/internal/provenance"
	"repro/internal/pyprov"
)

func main() {
	flock, err := core.New()
	if err != nil {
		log.Fatal(err)
	}
	flock.Access.AssignRole("dba", "admin")

	// Sensitive clinical tables; access is tightly scoped.
	mustExec(flock, `CREATE TABLE patients (id int, age float, bmi float, smoker text, hba1c float)`)
	mustExec(flock, `CREATE TABLE admissions (patient_id int, days float, readmitted int)`)
	r := ml.NewRand(21)
	smokers := []string{"yes", "no", "former"}
	for i := 1; i <= 150; i++ {
		mustExec(flock, fmt.Sprintf("INSERT INTO patients VALUES (%d, %.1f, %.1f, '%s', %.1f)",
			i, 25+r.Float64()*60, 18+r.Float64()*22, smokers[r.Intn(3)], 4.5+r.Float64()*7))
	}

	// The data-science side: a Python training script. The pyprov module
	// statically identifies the model, its hyperparameters, and — through
	// the read_sql call — the exact DBMS tables it trained on.
	script := `import pandas as pd
from sklearn.ensemble import GradientBoostingClassifier
from sklearn.metrics import roc_auc_score

df = pd.read_sql('SELECT p.age, p.bmi, p.smoker, p.hba1c, a.readmitted FROM patients p JOIN admissions a ON p.id = a.patient_id', conn)
X = df[['age', 'bmi', 'smoker', 'hba1c']]
y = df['readmitted']
model = GradientBoostingClassifier(n_estimators=60, max_depth=3)
model.fit(X, y)
auc = roc_auc_score(y, model.predict(X))
`
	analysis := pyprov.NewAnalyzer().Analyze("readmission_train.py", script)
	fmt.Printf("static analysis of the training script:\n")
	for _, m := range analysis.Models {
		fmt.Printf("  model %q = %s (trained: %t)\n", m.Var, m.Class, m.Trained)
		fmt.Printf("  hyperparameters: %v\n", m.Hyperparams)
		for _, d := range m.Datasets {
			fmt.Printf("  training data: %s tables=%v\n", d.Kind, d.Tables)
		}
	}
	analysis.LinkToCatalog(flock.Prov)

	// Deploy the (equivalently trained) Go model with matching provenance.
	pipe := trainReadmissionModel()
	if _, err := flock.DeployPipeline("dba", "readmission", pipe, core.TrainingInfo{
		Script:      "readmission_train.py",
		Tables:      []string{"patients", "admissions"},
		Hyperparams: map[string]string{"n_estimators": "60", "max_depth": "3"},
		Metrics:     map[string]string{"auc": "0.93"},
	}); err != nil {
		log.Fatal(err)
	}

	// A clinician role can score but never read raw tables.
	flock.Access.Grant("clinician", governance.ActScore, governance.ModelObject("readmission"))
	flock.Access.Grant("clinician", governance.ActSelect, governance.TableObject("patients"))
	flock.Access.AssignRole("dr-chen", "clinician")

	res, err := flock.Exec("dr-chen", `SELECT id, PREDICT(readmission, age, bmi, smoker, hba1c) AS risk
		FROM patients WHERE PREDICT(readmission, age, bmi, smoker, hba1c) > 0.7 ORDER BY risk DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhighest readmission risks (scored in-DB, never exported):")
	for i := range res.N {
		fmt.Printf("  patient %v: %.3f\n", res.Cols[0].Ints[i], res.Cols[1].Floats[i])
	}

	// GDPR-style question: where did the model behind these predictions
	// come from? Walk the lineage from the scoring query downstream.
	queries := flock.Catalog.EntitiesOfType(provenance.TypeQuery)
	scoring := queries[len(queries)-1]
	fmt.Println("\nlineage of the scoring decision:")
	seen := map[string]bool{}
	for _, e := range flock.Catalog.Lineage(scoring.ID, provenance.Downstream, 0) {
		key := string(e.Type) + ":" + e.Name
		if seen[key] {
			continue // versions of the same entity collapse for display
		}
		seen[key] = true
		if e.Type == provenance.TypeModel || e.Type == provenance.TypeTable ||
			e.Type == provenance.TypeScript || e.Type == provenance.TypeHyperparam {
			fmt.Printf("  %-10s %s\n", e.Type, e.Name)
		}
	}

	// Impact analysis: the lab changes the hba1c assay — which models must
	// be revalidated?
	fmt.Println("\nimpact analysis for a change to table 'patients':")
	for _, m := range flock.Prov.ImpactedModels("patients") {
		fmt.Printf("  model requiring revalidation: %s\n", m.Name)
	}

	fmt.Printf("\naudit chain intact: %t\n", flock.Audit.Verify() == -1)
}

func trainReadmissionModel() *ml.Pipeline {
	r := ml.NewRand(22)
	n := 3000
	age := make([]float64, n)
	bmi := make([]float64, n)
	smoker := make([]string, n)
	hba1c := make([]float64, n)
	y := make([]float64, n)
	smokers := []string{"yes", "no", "former"}
	for i := 0; i < n; i++ {
		age[i] = 25 + r.Float64()*60
		bmi[i] = 18 + r.Float64()*22
		smoker[i] = smokers[r.Intn(3)]
		hba1c[i] = 4.5 + r.Float64()*7
		risk := (age[i]-55)/20 + (bmi[i]-28)/8 + (hba1c[i]-7)/2
		if smoker[i] == "yes" {
			risk += 0.8
		}
		if risk > 0 {
			y[i] = 1
		}
	}
	f := ml.NewFrame().
		AddNumeric("age", age).
		AddNumeric("bmi", bmi).
		AddCategorical("smoker", smoker).
		AddNumeric("hba1c", hba1c)
	p := ml.NewPipeline("readmission",
		ml.NewFeaturizer().
			With("age", &ml.StandardScaler{}).
			With("bmi", &ml.StandardScaler{}).
			With("smoker", &ml.OneHotEncoder{}).
			With("hba1c", &ml.StandardScaler{}),
		&ml.GradientBoosting{NTrees: 60, MaxDepth: 3, Loss: ml.LossLogistic})
	if err := p.Fit(f, y); err != nil {
		log.Fatal(err)
	}
	return p
}

func mustExec(f *core.Flock, q string) {
	if _, err := f.Exec("dba", q); err != nil {
		log.Fatal(err)
	}
}
