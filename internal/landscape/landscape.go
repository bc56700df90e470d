// Package landscape reproduces the competitive-landscape study (Figure 3):
// a feature-support matrix of ML platforms across Training, Serving and
// Data Management capabilities. The paper shows the matrix as colored
// cells; the values here are a curated approximation of the published
// figure (the paper itself calls its grading "ostensibly a subjective
// judgement"), encoded so the two trends the paper derives are queryable:
// (1) mature proprietary stacks have stronger data-management support, and
// (2) no third-party offering is complete.
package landscape

import (
	"fmt"
	"sort"
	"strings"
)

// Support grades one system on one feature.
type Support int

// Support levels, ordered.
const (
	Unknown Support = iota
	None
	OK
	Good
)

func (s Support) String() string {
	switch s {
	case Good:
		return "good"
	case OK:
		return "ok"
	case None:
		return "none"
	default:
		return "?"
	}
}

// glyph renders a compact cell.
func (s Support) glyph() string {
	switch s {
	case Good:
		return "●"
	case OK:
		return "◐"
	case None:
		return "○"
	default:
		return "·"
	}
}

// Area groups features.
type Area string

// Feature areas.
const (
	AreaTraining Area = "Training"
	AreaServing  Area = "Serving"
	AreaDataMgmt Area = "Data Management"
)

// Feature is one graded capability.
type Feature struct {
	Name string
	Area Area
}

// Features lists the Figure-3 rows in order.
var Features = []Feature{
	{"Experiment Tracking", AreaTraining},
	{"Managed Notebooks", AreaTraining},
	{"Pipelines / Projects", AreaTraining},
	{"Multi-Framework", AreaTraining},
	{"Proprietary Algos", AreaTraining},
	{"Distributed Training", AreaTraining},
	{"AutoML", AreaTraining},
	{"Batch prediction", AreaServing},
	{"On-prem deployment", AreaServing},
	{"Model Monitoring", AreaServing},
	{"Model Validation", AreaServing},
	{"Data Provenance", AreaDataMgmt},
	{"Data testing", AreaDataMgmt},
	{"Feature Store", AreaDataMgmt},
	{"Featurization DSL", AreaDataMgmt},
	{"Labelling", AreaDataMgmt},
	{"In-DB ML", AreaDataMgmt},
}

// System is one graded platform.
type System struct {
	Name        string
	Proprietary bool // internal "unicorn" infrastructure
	Cloud       bool // public cloud service
	Grades      map[string]Support
}

// Systems is the Figure-3 column set with curated grades.
var Systems = []System{
	{
		Name: "Bing (internal)", Proprietary: true,
		Grades: grades(`Experiment Tracking=good Managed Notebooks=ok Pipelines / Projects=good
			Multi-Framework=ok Proprietary Algos=good Distributed Training=good AutoML=ok
			Batch prediction=good On-prem deployment=none Model Monitoring=good Model Validation=good
			Data Provenance=good Data testing=good Feature Store=good Featurization DSL=good
			Labelling=good In-DB ML=ok`),
	},
	{
		Name: "Uber Michelangelo", Proprietary: true,
		Grades: grades(`Experiment Tracking=good Managed Notebooks=ok Pipelines / Projects=good
			Multi-Framework=ok Proprietary Algos=good Distributed Training=good AutoML=ok
			Batch prediction=good On-prem deployment=none Model Monitoring=good Model Validation=good
			Data Provenance=good Data testing=ok Feature Store=good Featurization DSL=good
			Labelling=none In-DB ML=none`),
	},
	{
		Name: "LinkedIn ProML", Proprietary: true,
		Grades: grades(`Experiment Tracking=good Managed Notebooks=good Pipelines / Projects=good
			Multi-Framework=ok Proprietary Algos=good Distributed Training=good AutoML=ok
			Batch prediction=good On-prem deployment=none Model Monitoring=ok Model Validation=good
			Data Provenance=good Data testing=ok Feature Store=good Featurization DSL=good
			Labelling=none In-DB ML=none`),
	},
	{
		Name: "Azure ML", Cloud: true,
		Grades: grades(`Experiment Tracking=good Managed Notebooks=good Pipelines / Projects=good
			Multi-Framework=good Proprietary Algos=ok Distributed Training=good AutoML=good
			Batch prediction=good On-prem deployment=ok Model Monitoring=ok Model Validation=none
			Data Provenance=ok Data testing=none Feature Store=none Featurization DSL=ok
			Labelling=good In-DB ML=ok`),
	},
	{
		Name: "AWS SageMaker", Cloud: true,
		Grades: grades(`Experiment Tracking=ok Managed Notebooks=good Pipelines / Projects=ok
			Multi-Framework=good Proprietary Algos=good Distributed Training=good AutoML=ok
			Batch prediction=good On-prem deployment=none Model Monitoring=ok Model Validation=none
			Data Provenance=none Data testing=none Feature Store=none Featurization DSL=none
			Labelling=good In-DB ML=none`),
	},
	{
		Name: "Google Cloud AI", Cloud: true,
		Grades: grades(`Experiment Tracking=ok Managed Notebooks=good Pipelines / Projects=ok
			Multi-Framework=ok Proprietary Algos=good Distributed Training=good AutoML=good
			Batch prediction=good On-prem deployment=none Model Monitoring=ok Model Validation=none
			Data Provenance=none Data testing=none Feature Store=none Featurization DSL=none
			Labelling=good In-DB ML=ok`),
	},
	{
		Name: "MLflow",
		Grades: grades(`Experiment Tracking=good Managed Notebooks=none Pipelines / Projects=good
			Multi-Framework=good Proprietary Algos=none Distributed Training=none AutoML=none
			Batch prediction=ok On-prem deployment=good Model Monitoring=none Model Validation=none
			Data Provenance=ok Data testing=none Feature Store=none Featurization DSL=none
			Labelling=none In-DB ML=none`),
	},
	{
		Name: "Kubeflow",
		Grades: grades(`Experiment Tracking=ok Managed Notebooks=good Pipelines / Projects=good
			Multi-Framework=good Proprietary Algos=none Distributed Training=good AutoML=ok
			Batch prediction=ok On-prem deployment=good Model Monitoring=none Model Validation=none
			Data Provenance=ok Data testing=none Feature Store=none Featurization DSL=none
			Labelling=none In-DB ML=none`),
	},
	{
		Name: "TFX",
		Grades: grades(`Experiment Tracking=ok Managed Notebooks=none Pipelines / Projects=good
			Multi-Framework=none Proprietary Algos=none Distributed Training=good AutoML=none
			Batch prediction=good On-prem deployment=good Model Monitoring=ok Model Validation=good
			Data Provenance=good Data testing=good Feature Store=none Featurization DSL=good
			Labelling=none In-DB ML=none`),
	},
}

func grades(spec string) map[string]Support {
	out := map[string]Support{}
	// Entries are "Feature Name=level" separated by whitespace; feature
	// names may contain spaces, so split on '=' boundaries.
	fields := strings.Fields(spec)
	var nameParts []string
	for _, f := range fields {
		if i := strings.IndexByte(f, '='); i >= 0 {
			nameParts = append(nameParts, f[:i])
			name := strings.Join(nameParts, " ")
			nameParts = nil
			var s Support
			switch f[i+1:] {
			case "good":
				s = Good
			case "ok":
				s = OK
			case "none":
				s = None
			default:
				s = Unknown
			}
			out[name] = s
		} else {
			nameParts = append(nameParts, f)
		}
	}
	return out
}

// AreaScore averages a system's grades over one area (Good=2, OK=1,
// None/Unknown=0), normalized to [0, 1].
func (s *System) AreaScore(area Area) float64 {
	var sum, n float64
	for _, f := range Features {
		if f.Area != area {
			continue
		}
		n++
		switch s.Grades[f.Name] {
		case Good:
			sum += 2
		case OK:
			sum++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / (2 * n)
}

// Findings computes the two trends the paper reports from the matrix.
type Findings struct {
	// ProprietaryDataMgmt and ThirdPartyDataMgmt are the average
	// data-management area scores of the two groups.
	ProprietaryDataMgmt float64
	ThirdPartyDataMgmt  float64
	// MaxCoverage is the best full-matrix coverage of any non-proprietary
	// system (fraction of features at Good).
	MaxCoverage float64
	BestSystem  string
}

// Analyze derives the findings.
func Analyze() Findings {
	var f Findings
	var pSum, pN, tSum, tN float64
	for i := range Systems {
		s := &Systems[i]
		dm := s.AreaScore(AreaDataMgmt)
		if s.Proprietary {
			pSum += dm
			pN++
		} else {
			tSum += dm
			tN++
			good := 0
			for _, feat := range Features {
				if s.Grades[feat.Name] == Good {
					good++
				}
			}
			cov := float64(good) / float64(len(Features))
			if cov > f.MaxCoverage {
				f.MaxCoverage = cov
				f.BestSystem = s.Name
			}
		}
	}
	f.ProprietaryDataMgmt = pSum / pN
	f.ThirdPartyDataMgmt = tSum / tN
	return f
}

// Render prints the matrix in Figure-3 layout (features as rows grouped by
// area, systems as columns).
func Render() string {
	var b strings.Builder
	nameW := 0
	for _, f := range Features {
		if len(f.Name) > nameW {
			nameW = len(f.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW+2, "")
	for _, s := range Systems {
		fmt.Fprintf(&b, "%-4s", initials(s.Name))
	}
	b.WriteString("\n")
	lastArea := Area("")
	for _, f := range Features {
		if f.Area != lastArea {
			fmt.Fprintf(&b, "%s\n", f.Area)
			lastArea = f.Area
		}
		fmt.Fprintf(&b, "  %-*s", nameW, f.Name)
		for i := range Systems {
			fmt.Fprintf(&b, " %s  ", Systems[i].Grades[f.Name].glyph())
		}
		b.WriteString("\n")
	}
	b.WriteString("● good   ◐ ok   ○ none   · unknown\ncolumns: ")
	var cols []string
	for _, s := range Systems {
		cols = append(cols, initials(s.Name)+"="+s.Name)
	}
	b.WriteString(strings.Join(cols, ", "))
	b.WriteString("\n")
	return b.String()
}

func initials(name string) string {
	var out []byte
	for _, w := range strings.Fields(name) {
		c := w[0]
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		if c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	if len(out) > 3 {
		out = out[:3]
	}
	return string(out)
}

// systemsSupporting lists systems with at least the given level on a
// feature, sorted by name.
func systemsSupporting(feature string, atLeast Support) []string {
	var out []string
	for i := range Systems {
		if Systems[i].Grades[feature] >= atLeast {
			out = append(out, Systems[i].Name)
		}
	}
	sort.Strings(out)
	return out
}
