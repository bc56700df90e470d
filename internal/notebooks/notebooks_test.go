package notebooks

import (
	"testing"
	"testing/quick"
)

func TestExtractImports(t *testing.T) {
	src := `import numpy as np
from pandas.core import frame
import sklearn.linear_model
import numpy
x = 1
`
	got := extractImports(src)
	want := []string{"numpy", "pandas", "sklearn"}
	if len(got) != len(want) {
		t.Fatalf("imports = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("import[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestGenerateCorpusShape(t *testing.T) {
	c := Generate(Config{Label: "x", NumNotebooks: 500, NumPackages: 100, Alpha: 1.5, Seed: 1})
	if len(c.Notebooks) != 500 {
		t.Fatalf("notebooks = %d", len(c.Notebooks))
	}
	for _, nb := range c.Notebooks {
		if len(nb.Packages) < 2 {
			t.Fatal("notebook with fewer than 2 imports")
		}
		// Source round-trips through the extractor.
		ex := extractImports(nb.Source)
		if len(ex) != len(nb.Packages) {
			t.Fatalf("extractor mismatch: %v vs %v", ex, nb.Packages)
		}
	}
	// Zipf head: numpy must be the most popular package.
	if c.Popularity()[0] != "numpy" {
		t.Errorf("most popular = %s", c.Popularity()[0])
	}
}

func TestCoverageMonotone(t *testing.T) {
	c := Generate(Config{Label: "x", NumNotebooks: 2000, NumPackages: 300, Alpha: 1.5, Seed: 2})
	ks := []int{1, 5, 10, 50, 100, 300}
	cov := c.Coverage(ks)
	for i := 1; i < len(cov); i++ {
		if cov[i] < cov[i-1] {
			t.Fatalf("coverage not monotone: %v", cov)
		}
	}
	if cov[len(cov)-1] != 1.0 {
		t.Errorf("coverage at K=all packages = %v, want 1.0", cov[len(cov)-1])
	}
	if cov[0] > 0.1 {
		t.Errorf("coverage at K=1 = %v, implausibly high", cov[0])
	}
}

func TestFigure2Calibration(t *testing.T) {
	c2017 := Corpus2017()
	c2019 := Corpus2019()

	// "3x more packages" between the corpora.
	p17, p19 := c2017.DistinctPackages(), c2019.DistinctPackages()
	ratio := float64(p19) / float64(p17)
	if ratio < 2.4 || ratio > 3.6 {
		t.Errorf("package growth ratio = %.2f (%d -> %d), want ~3x", ratio, p17, p19)
	}

	// "Top10: ~5% more coverage" in 2019.
	cov17 := c2017.Coverage([]int{10})[0]
	cov19 := c2019.Coverage([]int{10})[0]
	delta := (cov19 - cov17) * 100
	if delta < 2 || delta > 10 {
		t.Errorf("top-10 coverage delta = %.1f points (%.1f%% -> %.1f%%), want ~5",
			delta, cov17*100, cov19*100)
	}

	// Both curves approach 1 at their tails.
	tail17 := c2017.Coverage([]int{1000})[0]
	tail19 := c2019.Coverage([]int{3000})[0]
	if tail17 < 0.999 || tail19 < 0.999 {
		t.Errorf("tail coverage: 2017=%v 2019=%v", tail17, tail19)
	}
}

// Property: coverage is monotone in K for arbitrary generated corpora.
func TestCoverageMonotoneProperty(t *testing.T) {
	f := func(seed uint16, alphaTenths uint8) bool {
		alpha := 1.1 + float64(alphaTenths%10)/10
		c := Generate(Config{
			Label: "p", NumNotebooks: 300, NumPackages: 150,
			Alpha: alpha, Seed: uint64(seed) + 1,
		})
		ks := []int{1, 2, 4, 8, 16, 32, 64, 150}
		cov := c.Coverage(ks)
		for i := 1; i < len(cov); i++ {
			if cov[i] < cov[i-1] {
				return false
			}
		}
		return cov[len(cov)-1] == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
