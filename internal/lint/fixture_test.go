package lint

// The analyzer golden tests: each analyzer has a fixture package under
// testdata/src/<name>/ (package name "<name>_fixture") annotated with
// analysistest-style expectations:
//
//	f.Close() // want `Close error .* silently discarded`
//
// A `// want` comment on its own line applies to the line above it (for
// cases, like ignore directives, where the flagged construct is itself
// a comment). Every want must be matched by a diagnostic on that line
// and every diagnostic must be wanted — both directions are errors.

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// fixtureExports lazily runs `go list -export` once for the repo and the
// stdlib packages fixtures import, shared across all fixture tests.
var fixtureExports struct {
	once sync.Once
	m    map[string]string
	root string
	err  error
}

func exportsForFixtures(t *testing.T) (string, map[string]string) {
	t.Helper()
	fixtureExports.once.Do(func() {
		root, err := load.ModuleRoot(".")
		if err != nil {
			fixtureExports.err = err
			return
		}
		fixtureExports.root = root
		pkgs, err := load.GoList(root, "os", "context", "time", "sync", "net/http", "io", "errors", "fmt", "./...")
		if err != nil {
			fixtureExports.err = err
			return
		}
		fixtureExports.m = map[string]string{}
		for _, p := range pkgs {
			if p.Export != "" {
				fixtureExports.m[p.ImportPath] = p.Export
			}
		}
	})
	if fixtureExports.err != nil {
		t.Fatalf("collecting export data: %v", fixtureExports.err)
	}
	return fixtureExports.root, fixtureExports.m
}

// wantRe matches `// want `regexp“ and `// want "regexp"` comments.
var wantRe = regexp.MustCompile("// want (?:`([^`]*)`|\"([^\"]*)\")")

type expectation struct {
	line int
	re   *regexp.Regexp
}

// runFixture loads testdata/src/<analyzer>/ and checks the analyzer's
// findings against the fixture's want annotations.
func runFixture(t *testing.T, a *analysis.Analyzer) {
	t.Helper()
	root, exports := exportsForFixtures(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", a.Name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	// Collect expectations from the sources.
	expByFile := map[string][]expectation{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pat := m[1]
			if pat == "" {
				pat = m[2]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", f, i+1, err)
			}
			wantLine := i + 1
			if strings.HasPrefix(strings.TrimSpace(line), "// want ") {
				wantLine-- // standalone want: refers to the line above
			}
			expByFile[f] = append(expByFile[f], expectation{line: wantLine, re: re})
		}
	}

	fset := token.NewFileSet()
	imp := load.NewImporter(fset, exports)
	pkg, err := load.TypeCheck(fset, "testdata/"+a.Name, dir, files, imp.ForPackage(nil), "")
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}
	findings, err := RunPackage(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	// Match findings to expectations.
	matched := map[*expectation]bool{}
	for _, f := range findings {
		exps := expByFile[f.Pos.Filename]
		ok := false
		for i := range exps {
			e := &exps[i]
			if e.line == f.Pos.Line && e.re.MatchString(f.Message) && !matched[e] {
				matched[e] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding at %s:%d: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Message)
		}
	}
	var missing []string
	for file, exps := range expByFile {
		for i := range exps {
			if !matched[&exps[i]] {
				missing = append(missing, fmt.Sprintf("%s:%d: want %q not reported", filepath.Base(file), exps[i].line, exps[i].re))
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
}

func TestCtxLoopFixture(t *testing.T)         { runFixture(t, CtxLoop) }
func TestLockOrderFixture(t *testing.T)       { runFixture(t, LockOrder) }
func TestAckAfterSyncFixture(t *testing.T)    { runFixture(t, AckAfterSync) }
func TestFaultPointFixture(t *testing.T)      { runFixture(t, FaultPoint) }
func TestCloseCheckFixture(t *testing.T)      { runFixture(t, CloseCheck) }
func TestRetryIdempotentFixture(t *testing.T) { runFixture(t, RetryIdempotent) }
func TestIgnoreCheckFixture(t *testing.T)     { runFixture(t, IgnoreCheck) }
func TestEpochGateFixture(t *testing.T)       { runFixture(t, EpochGate) }
func TestCacheGenFixture(t *testing.T)        { runFixture(t, CacheGen) }
func TestGovernGateFixture(t *testing.T)      { runFixture(t, GovernGate) }
