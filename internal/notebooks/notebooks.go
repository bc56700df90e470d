// Package notebooks reproduces the paper's GitHub notebook study
// (Figure 2): given a corpus of notebooks, what fraction would be
// completely supported if only the K most popular packages were covered?
//
// The original >4M-notebook crawl is unavailable, so the corpus is
// synthetic: package popularity follows a Zipf law (as observed in every
// package-ecosystem study), with the 2017 and 2019 corpora calibrated to
// the two shapes the paper annotates — 2019 has ~3x more packages in total
// (the field "still expanding quickly") while its head is more concentrated
// (numpy/pandas/sklearn "solidifying their position"), lifting top-10
// coverage by roughly five points.
package notebooks

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/ml"
)

// headPackages are the real-world names of the head of the distribution.
var headPackages = []string{
	"numpy", "pandas", "sklearn", "matplotlib", "scipy", "seaborn",
	"tensorflow", "keras", "xgboost", "torch", "statsmodels", "nltk",
	"plotly", "requests", "lightgbm", "gensim", "cv2", "pillow",
	"mlflow", "bokeh",
}

// Notebook is one corpus member: its source text (import lines) plus the
// extracted package set.
type Notebook struct {
	Source   string
	Packages []string
}

// Corpus is a labelled notebook collection.
type Corpus struct {
	Label     string
	Notebooks []Notebook
	NumPkgs   int
}

// Config controls corpus generation.
type Config struct {
	Label        string
	NumNotebooks int
	NumPackages  int
	// Alpha is the Zipf exponent; larger means a more concentrated head.
	Alpha float64
	// MaxImports bounds the imports per notebook (min is 2).
	MaxImports int
	Seed       uint64
}

// Generate builds a synthetic corpus under the config.
func Generate(cfg Config) *Corpus {
	if cfg.MaxImports < 2 {
		cfg.MaxImports = 10
	}
	r := ml.NewRand(cfg.Seed)
	// Precompute the Zipf CDF over package ranks.
	weights := make([]float64, cfg.NumPackages)
	var total float64
	for k := 0; k < cfg.NumPackages; k++ {
		weights[k] = 1 / math.Pow(float64(k+1), cfg.Alpha)
		total += weights[k]
	}
	cdf := make([]float64, cfg.NumPackages)
	acc := 0.0
	for k := range weights {
		acc += weights[k] / total
		cdf[k] = acc
	}
	sample := func() int {
		u := r.Float64()
		// Binary search the CDF.
		lo, hi := 0, cfg.NumPackages-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	c := &Corpus{Label: cfg.Label, NumPkgs: cfg.NumPackages}
	for i := 0; i < cfg.NumNotebooks; i++ {
		n := 2 + r.Intn(cfg.MaxImports-1)
		seen := map[int]bool{}
		var pkgs []string
		for len(pkgs) < n {
			k := sample()
			if seen[k] {
				continue
			}
			seen[k] = true
			pkgs = append(pkgs, pkgName(k))
		}
		var src strings.Builder
		for _, p := range pkgs {
			fmt.Fprintf(&src, "import %s\n", p)
		}
		c.Notebooks = append(c.Notebooks, Notebook{Source: src.String(), Packages: pkgs})
	}
	return c
}

func pkgName(rank int) string {
	if rank < len(headPackages) {
		return headPackages[rank]
	}
	return fmt.Sprintf("pkg_%04d", rank)
}

// extractImports parses a notebook's source and returns the imported
// package roots ("import a.b as c" and "from a.b import c" both yield "a").
func extractImports(source string) []string {
	seen := map[string]bool{}
	var out []string
	for _, line := range strings.Split(source, "\n") {
		line = strings.TrimSpace(line)
		var pkg string
		if strings.HasPrefix(line, "import ") {
			rest := strings.TrimPrefix(line, "import ")
			pkg = strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '.' || r == ',' })[0]
		} else if strings.HasPrefix(line, "from ") {
			rest := strings.TrimPrefix(line, "from ")
			pkg = strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '.' })[0]
		}
		if pkg != "" && !seen[pkg] {
			seen[pkg] = true
			out = append(out, pkg)
		}
	}
	return out
}

// Popularity returns package names ranked by how many notebooks import
// them (descending), with ties broken by name for determinism.
func (c *Corpus) Popularity() []string {
	counts := map[string]int{}
	for _, nb := range c.Notebooks {
		for _, p := range nb.Packages {
			counts[p]++
		}
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Coverage computes, for each requested K, the fraction of notebooks whose
// imports are fully contained in the top-K packages — Figure 2's y-axis.
func (c *Corpus) Coverage(ks []int) []float64 {
	ranked := c.Popularity()
	rank := make(map[string]int, len(ranked))
	for i, p := range ranked {
		rank[p] = i
	}
	// For each notebook, the max rank among its imports decides the
	// smallest covering K.
	maxRank := make([]int, len(c.Notebooks))
	for i, nb := range c.Notebooks {
		m := 0
		for _, p := range nb.Packages {
			if r, ok := rank[p]; ok {
				if r > m {
					m = r
				}
			} else {
				m = math.MaxInt32
			}
		}
		maxRank[i] = m
	}
	out := make([]float64, len(ks))
	for ki, k := range ks {
		covered := 0
		for _, m := range maxRank {
			if m < k {
				covered++
			}
		}
		out[ki] = float64(covered) / float64(len(c.Notebooks))
	}
	return out
}

// DistinctPackages counts the packages that actually occur in the corpus.
func (c *Corpus) DistinctPackages() int {
	seen := map[string]bool{}
	for _, nb := range c.Notebooks {
		for _, p := range nb.Packages {
			seen[p] = true
		}
	}
	return len(seen)
}

// DefaultKs is the K axis used for Figure 2.
var DefaultKs = []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 3000}

// Corpus2017 generates the calibrated 2017 corpus.
func Corpus2017() *Corpus {
	return Generate(Config{
		Label: "2017", NumNotebooks: 20000, NumPackages: 1000,
		Alpha: 1.45, MaxImports: 9, Seed: 2017,
	})
}

// Corpus2019 generates the calibrated 2019 corpus: 3x the packages, a more
// concentrated head.
func Corpus2019() *Corpus {
	return Generate(Config{
		Label: "2019", NumNotebooks: 60000, NumPackages: 3000,
		Alpha: 1.62, MaxImports: 9, Seed: 2019,
	})
}
