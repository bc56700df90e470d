package landscape

import (
	"strings"
	"testing"
)

func TestMatrixComplete(t *testing.T) {
	// Every system grades every feature (no accidental holes).
	for _, s := range Systems {
		for _, f := range Features {
			if _, ok := s.Grades[f.Name]; !ok {
				t.Errorf("system %q missing grade for %q", s.Name, f.Name)
			}
		}
		if len(s.Grades) != len(Features) {
			t.Errorf("system %q has %d grades, want %d (stray feature name?)",
				s.Name, len(s.Grades), len(Features))
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	if len(Systems) != 9 {
		t.Errorf("systems = %d, want 9", len(Systems))
	}
	if len(Features) != 17 {
		t.Errorf("features = %d, want 17", len(Features))
	}
	areas := map[Area]int{}
	for _, f := range Features {
		areas[f.Area]++
	}
	if areas[AreaTraining] != 7 || areas[AreaServing] != 4 || areas[AreaDataMgmt] != 6 {
		t.Errorf("area sizes = %v", areas)
	}
}

func TestPaperTrends(t *testing.T) {
	f := Analyze()
	// Trend 1: "mature proprietary solutions have stronger support for
	// data management".
	if f.ProprietaryDataMgmt <= f.ThirdPartyDataMgmt {
		t.Errorf("proprietary data-mgmt score (%.2f) should exceed third-party (%.2f)",
			f.ProprietaryDataMgmt, f.ThirdPartyDataMgmt)
	}
	// Trend 2: "providing complete and usable third-party solutions in
	// this space is non-trivial" — nobody outside the unicorns covers
	// even 2/3 of the matrix at Good.
	if f.MaxCoverage >= 0.67 {
		t.Errorf("best third-party coverage = %.2f (%s); matrix no longer supports the paper's trend",
			f.MaxCoverage, f.BestSystem)
	}
}

func TestAreaScoreBounds(t *testing.T) {
	for _, s := range Systems {
		for _, a := range []Area{AreaTraining, AreaServing, AreaDataMgmt} {
			sc := s.AreaScore(a)
			if sc < 0 || sc > 1 {
				t.Errorf("%s %s score = %v", s.Name, a, sc)
			}
		}
	}
}

func TestRender(t *testing.T) {
	out := Render()
	for _, want := range []string{"Training", "Serving", "Data Management", "In-DB ML", "good"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if len(strings.Split(out, "\n")) < len(Features)+3 {
		t.Error("render too short")
	}
}

func TestSystemsSupporting(t *testing.T) {
	indb := systemsSupporting("In-DB ML", OK)
	// Azure ML and Google Cloud AI ship in-DB scoring paths; Bing counts
	// via SQL Server integration.
	if len(indb) < 2 {
		t.Errorf("in-DB ML supporters = %v", indb)
	}
	all := systemsSupporting("Batch prediction", OK)
	if len(all) != len(Systems) {
		t.Errorf("batch prediction should be table stakes, got %v", all)
	}
	none := systemsSupporting("Feature Store", Good)
	for _, n := range none {
		found := false
		for _, s := range Systems {
			if s.Name == n && s.Proprietary {
				found = true
			}
		}
		if !found {
			t.Errorf("non-proprietary system %q has a Good feature store; matrix drifted", n)
		}
	}
}

func TestSupportString(t *testing.T) {
	if Good.String() != "good" || OK.String() != "ok" || None.String() != "none" || Unknown.String() != "?" {
		t.Error("support labels changed")
	}
}
