// Package pyprov is the Python provenance module of §4.2: it statically
// analyzes (a practical subset of) Python data-science scripts, identifies
// which variables correspond to models, hyperparameters, features, metrics
// and training datasets using a knowledge base of ML APIs, tracks the
// transformations performed on those variables, and links SQL-sourced
// datasets to the tables of the provenance catalog — connecting the Python
// world to the DBMS world (challenge C3).
package pyprov

import "strings"

// Role classifies a knowledge-base API.
type Role int

// API roles.
const (
	RoleModel Role = iota
	RoleFeaturizer
	RoleDataReader
	RoleMetric
	RoleSplitter
)

// KBEntry describes one known API.
type KBEntry struct {
	// FullName is the canonical dotted path, e.g.
	// "sklearn.linear_model.LogisticRegression" or "pandas.read_sql".
	FullName string
	Role     Role
	// ReaderKind, for RoleDataReader, classifies the source: "sql",
	// "file", "builtin".
	ReaderKind string
}

// KnowledgeBase maps canonical API paths to entries. The paper's module
// "maintains a knowledge base of ML APIs"; this is ours, covering the
// packages the GitHub study found dominant (numpy/pandas/sklearn plus the
// usual boosters).
type KnowledgeBase struct {
	entries map[string]KBEntry
}

// DefaultKB returns the built-in knowledge base.
func DefaultKB() *KnowledgeBase {
	kb := &KnowledgeBase{entries: map[string]KBEntry{}}
	add := func(name string, role Role, kind string) {
		kb.entries[name] = KBEntry{FullName: name, Role: role, ReaderKind: kind}
	}
	// Models.
	for _, m := range []string{
		"sklearn.linear_model.LogisticRegression",
		"sklearn.linear_model.LinearRegression",
		"sklearn.linear_model.Ridge",
		"sklearn.linear_model.Lasso",
		"sklearn.linear_model.SGDClassifier",
		"sklearn.tree.DecisionTreeClassifier",
		"sklearn.tree.DecisionTreeRegressor",
		"sklearn.ensemble.RandomForestClassifier",
		"sklearn.ensemble.RandomForestRegressor",
		"sklearn.ensemble.GradientBoostingClassifier",
		"sklearn.ensemble.GradientBoostingRegressor",
		"sklearn.svm.SVC",
		"sklearn.svm.SVR",
		"sklearn.naive_bayes.GaussianNB",
		"sklearn.neighbors.KNeighborsClassifier",
		"sklearn.cluster.KMeans",
		"sklearn.pipeline.Pipeline",
		"xgboost.XGBClassifier",
		"xgboost.XGBRegressor",
		"lightgbm.LGBMClassifier",
		"lightgbm.LGBMRegressor",
		"catboost.CatBoostClassifier",
	} {
		add(m, RoleModel, "")
	}
	// Featurizers.
	for _, f := range []string{
		"sklearn.preprocessing.StandardScaler",
		"sklearn.preprocessing.MinMaxScaler",
		"sklearn.preprocessing.OneHotEncoder",
		"sklearn.preprocessing.LabelEncoder",
		"sklearn.feature_extraction.text.TfidfVectorizer",
		"sklearn.feature_extraction.text.CountVectorizer",
		"sklearn.decomposition.PCA",
	} {
		add(f, RoleFeaturizer, "")
	}
	// Data readers.
	add("pandas.read_sql", RoleDataReader, "sql")
	add("pandas.read_sql_query", RoleDataReader, "sql")
	add("pandas.read_sql_table", RoleDataReader, "table")
	add("pandas.read_csv", RoleDataReader, "file")
	add("pandas.read_parquet", RoleDataReader, "file")
	add("pandas.read_json", RoleDataReader, "file")
	add("pandas.read_excel", RoleDataReader, "file")
	add("numpy.loadtxt", RoleDataReader, "file")
	add("numpy.load", RoleDataReader, "file")
	add("sklearn.datasets.load_iris", RoleDataReader, "builtin")
	add("sklearn.datasets.load_digits", RoleDataReader, "builtin")
	add("sklearn.datasets.make_classification", RoleDataReader, "builtin")
	add("sklearn.datasets.fetch_openml", RoleDataReader, "builtin")
	// Metrics.
	for _, m := range []string{
		"sklearn.metrics.accuracy_score",
		"sklearn.metrics.roc_auc_score",
		"sklearn.metrics.mean_squared_error",
		"sklearn.metrics.f1_score",
		"sklearn.metrics.precision_score",
		"sklearn.metrics.recall_score",
		"sklearn.metrics.log_loss",
	} {
		add(m, RoleMetric, "")
	}
	// Splitters.
	add("sklearn.model_selection.train_test_split", RoleSplitter, "")
	add("sklearn.model_selection.cross_val_score", RoleMetric, "")
	return kb
}

// Lookup resolves a canonical dotted path; functions may be referenced by
// their full module path or by any suffix match after a from-import.
func (kb *KnowledgeBase) Lookup(path string) (KBEntry, bool) {
	if e, ok := kb.entries[path]; ok {
		return e, true
	}
	// from sklearn.linear_model import LogisticRegression
	// resolves as "sklearn.linear_model.LogisticRegression" upstream;
	// suffix matching handles "module.Class" spellings.
	for full, e := range kb.entries {
		if strings.HasSuffix(full, "."+path) {
			return e, true
		}
	}
	return KBEntry{}, false
}
