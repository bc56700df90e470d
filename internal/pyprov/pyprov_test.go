package pyprov

import (
	"strings"
	"testing"

	"repro/internal/provenance"
)

func TestAnalyzeBasicScript(t *testing.T) {
	src := `import pandas as pd
from sklearn.linear_model import LogisticRegression
from sklearn.metrics import accuracy_score

df = pd.read_sql('SELECT age, income, label FROM customers', conn)
X = df[['age', 'income']]
y = df['label']
model = LogisticRegression(C=0.5, max_iter=200)
model.fit(X, y)
acc = accuracy_score(y, model.predict(X))
`
	a := NewAnalyzer()
	res := a.Analyze("s.py", src)
	if len(res.Models) != 1 {
		t.Fatalf("models = %+v", res.Models)
	}
	m := res.Models[0]
	if m.Var != "model" || m.Class != "sklearn.linear_model.LogisticRegression" {
		t.Errorf("model = %+v", m)
	}
	if !m.Trained {
		t.Error("fit() not detected")
	}
	if m.Hyperparams["C"] != "0.5" || m.Hyperparams["max_iter"] != "200" {
		t.Errorf("hyperparams = %v", m.Hyperparams)
	}
	if len(res.Datasets) != 1 || res.Datasets[0].Kind != "sql" {
		t.Fatalf("datasets = %+v", res.Datasets)
	}
	if len(res.Datasets[0].Tables) != 1 || res.Datasets[0].Tables[0] != "customers" {
		t.Errorf("tables = %v", res.Datasets[0].Tables)
	}
	// The fit's dataset provenance flows df -> X -> fit.
	if len(m.Datasets) != 1 || m.Datasets[0].Tables[0] != "customers" {
		t.Errorf("model datasets = %+v", m.Datasets)
	}
	if len(res.Metrics) != 1 {
		t.Errorf("metrics = %v", res.Metrics)
	}
}

func TestAnalyzeImportStyles(t *testing.T) {
	src := `import xgboost
from sklearn.ensemble import RandomForestClassifier as RF
import pandas as pd

a = xgboost.XGBClassifier()
b = RF(n_estimators=10)
df = pd.read_csv('x.csv')
a.fit(df, df)
b.fit(df, df)
`
	res := NewAnalyzer().Analyze("s.py", src)
	if len(res.Models) != 2 {
		t.Fatalf("models = %+v", res.Models)
	}
	if res.Models[0].Class != "xgboost.XGBClassifier" {
		t.Errorf("class = %s", res.Models[0].Class)
	}
	if res.Models[1].Class != "sklearn.ensemble.RandomForestClassifier" {
		t.Errorf("aliased class = %s", res.Models[1].Class)
	}
	for _, m := range res.Models {
		if !m.Trained {
			t.Errorf("model %s not marked trained", m.Var)
		}
	}
}

func TestAnalyzeTrainTestSplitFlow(t *testing.T) {
	src := `import pandas as pd
from sklearn.model_selection import train_test_split
from sklearn.svm import SVC

df = pd.read_csv('train.csv')
X_train, X_test, y_train, y_test = train_test_split(df, df)
clf = SVC()
clf.fit(X_train, y_train)
`
	res := NewAnalyzer().Analyze("s.py", src)
	if len(res.Models) != 1 || !res.Models[0].Trained {
		t.Fatalf("models = %+v", res.Models)
	}
	if len(res.Models[0].Datasets) != 1 {
		t.Errorf("dataset provenance lost through train_test_split: %+v", res.Models[0].Datasets)
	}
}

func TestAnalyzeUnknownWrapperMissed(t *testing.T) {
	src := `from my_framework import MagicModel
m = MagicModel()
m.fit(x, y)
`
	res := NewAnalyzer().Analyze("s.py", src)
	if len(res.Models) != 0 {
		t.Errorf("unknown model should be missed, got %+v", res.Models)
	}
	if res.Unresolved == 0 {
		t.Error("unresolved constructor should be counted")
	}
}

func TestAnalyzeDerivedFrames(t *testing.T) {
	src := `import pandas as pd
from sklearn.cluster import KMeans
raw = pd.read_parquet('events.parquet')
clean = raw.dropna()
sample = clean.head(1000)
km = KMeans(n_clusters=5)
km.fit(sample)
`
	res := NewAnalyzer().Analyze("s.py", src)
	if len(res.Models) != 1 || !res.Models[0].Trained {
		t.Fatalf("models = %+v", res.Models)
	}
	if len(res.Models[0].Datasets) != 1 || res.Models[0].Datasets[0].Kind != "file" {
		t.Errorf("provenance through derivations lost: %+v", res.Models[0].Datasets)
	}
}

func TestLinkToCatalog(t *testing.T) {
	src := `import pandas as pd
from sklearn.linear_model import Ridge
df = pd.read_sql('SELECT a, b FROM metrics_daily', conn)
r = Ridge(alpha=0.1)
r.fit(df, df)
`
	res := NewAnalyzer().Analyze("train.py", src)
	cat := provenance.NewCatalog()
	tr := provenance.NewSQLTracker(cat)
	res.LinkToCatalog(tr)
	impacted := tr.ImpactedModels("metrics_daily")
	if len(impacted) != 1 {
		t.Fatalf("impacted = %v", impacted)
	}
	if !strings.Contains(impacted[0].Name, "train.py::r") {
		t.Errorf("model entity = %s", impacted[0].Name)
	}
}

func TestSplitAssignment(t *testing.T) {
	cases := []struct {
		line    string
		targets int
	}{
		{"x = 1", 1},
		{"a, b = f()", 2},
		{"a, b, c, d = train_test_split(X, y)", 4},
		{"f(x)", 0},
		{"x == y", 0},
		{"d['k'] = 1", 0}, // subscript targets are not plain identifiers
		{"x = d[k == 1]", 1},
	}
	for _, c := range cases {
		targets, _ := splitAssignment(c.line)
		if len(targets) != c.targets {
			t.Errorf("splitAssignment(%q) = %v, want %d targets", c.line, targets, c.targets)
		}
	}
}

func TestPyParserShapes(t *testing.T) {
	exprs, err := parsePyExpr("pd.read_csv('a.csv', sep=',')")
	if err != nil || len(exprs) != 1 {
		t.Fatalf("parse: %v %v", exprs, err)
	}
	call := exprs[0].(*pyCall)
	if dottedName(call.Fn) != "pd.read_csv" {
		t.Errorf("fn = %s", dottedName(call.Fn))
	}
	if call.Kwargs["sep"] == nil || len(call.Args) != 1 {
		t.Errorf("args = %+v kwargs = %+v", call.Args, call.Kwargs)
	}
	// Subscript with list.
	exprs, err = parsePyExpr("df[['a', 'b']]")
	if err != nil {
		t.Fatal(err)
	}
	if rootName(exprs[0]) != "df" {
		t.Errorf("root = %s", rootName(exprs[0]))
	}
	ss := stringsIn(exprs[0])
	if len(ss) != 2 {
		t.Errorf("strings = %v", ss)
	}
	// Binary expression: both operands surfaced.
	exprs, err = parsePyExpr("a + b")
	if err != nil || len(exprs) != 2 {
		t.Fatalf("binary operands: %v %v", exprs, err)
	}
	if _, err := parsePyExpr("f('unterminated"); err == nil {
		t.Error("unterminated string should error")
	}
}

func TestCorpusCoverageKaggle(t *testing.T) {
	rep := EvaluateCoverage(NewAnalyzer(), KaggleCorpus())
	if rep.Scripts != 49 {
		t.Fatalf("scripts = %d", rep.Scripts)
	}
	if rep.ModelsTotal != 60 || rep.DatasetsTotal != 49 {
		t.Fatalf("ground truth totals: models=%d datasets=%d", rep.ModelsTotal, rep.DatasetsTotal)
	}
	// Paper: 95% models, 61% datasets. Require the same figures within a
	// point (the corpus is constructed, so these should be exact).
	if pct := rep.ModelPct(); pct < 94 || pct > 96 {
		t.Errorf("model coverage = %.1f%%, want ~95%%", pct)
	}
	if pct := rep.DatasetPct(); pct < 60 || pct > 62.5 {
		t.Errorf("dataset coverage = %.1f%%, want ~61%%", pct)
	}
}

func TestCorpusCoverageMicrosoft(t *testing.T) {
	rep := EvaluateCoverage(NewAnalyzer(), MicrosoftCorpus())
	if rep.Scripts != 37 {
		t.Fatalf("scripts = %d", rep.Scripts)
	}
	if rep.ModelPct() != 100 {
		t.Errorf("model coverage = %.1f%%, want 100%%", rep.ModelPct())
	}
	if rep.DatasetPct() != 100 {
		t.Errorf("dataset coverage = %.1f%%, want 100%%", rep.DatasetPct())
	}
	// Every Microsoft dataset must resolve to a concrete warehouse table.
	a := NewAnalyzer()
	for _, s := range MicrosoftCorpus() {
		res := a.Analyze(s.Name, s.Source)
		if len(res.Datasets) != 1 || len(res.Datasets[0].Tables) == 0 {
			t.Fatalf("script %s: dataset tables not resolved: %+v", s.Name, res.Datasets)
		}
	}
}

func TestKBLookup(t *testing.T) {
	kb := DefaultKB()
	if _, ok := kb.Lookup("sklearn.svm.SVC"); !ok {
		t.Error("full path lookup failed")
	}
	if _, ok := kb.Lookup("made.up.Thing"); ok {
		t.Error("unknown path should miss")
	}
	if n := len(kb.entries); n < 40 {
		t.Errorf("KB suspiciously small: %d", n)
	}
}
