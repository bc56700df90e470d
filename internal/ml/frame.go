package ml

import "fmt"

// ColKind classifies a Frame column for featurization purposes.
type ColKind int

// Column kinds understood by the featurizers.
const (
	KindNumeric ColKind = iota
	KindCategorical
	KindText
)

func (k ColKind) String() string {
	switch k {
	case KindNumeric:
		return "numeric"
	case KindCategorical:
		return "categorical"
	case KindText:
		return "text"
	default:
		return fmt.Sprintf("ColKind(%d)", int(k))
	}
}

// FrameCol is a single named, typed column. Numeric columns use Nums;
// categorical and text columns use Strs.
type FrameCol struct {
	Name string
	Kind ColKind
	Nums []float64
	Strs []string
}

// Len returns the number of rows in the column.
func (c *FrameCol) Len() int {
	if c.Kind == KindNumeric {
		return len(c.Nums)
	}
	return len(c.Strs)
}

// Frame is a small columnar data frame: the training-side data abstraction
// (the paper's observation is that most pipelines ultimately funnel data into
// a structured DataFrame; this is ours).
type Frame struct {
	Cols []FrameCol
}

// NewFrame returns an empty frame.
func NewFrame() *Frame { return &Frame{} }

// AddNumeric appends a numeric column.
func (f *Frame) AddNumeric(name string, vals []float64) *Frame {
	f.Cols = append(f.Cols, FrameCol{Name: name, Kind: KindNumeric, Nums: vals})
	return f
}

// AddCategorical appends a categorical (string) column.
func (f *Frame) AddCategorical(name string, vals []string) *Frame {
	f.Cols = append(f.Cols, FrameCol{Name: name, Kind: KindCategorical, Strs: vals})
	return f
}

// AddText appends a free-text column.
func (f *Frame) AddText(name string, vals []string) *Frame {
	f.Cols = append(f.Cols, FrameCol{Name: name, Kind: KindText, Strs: vals})
	return f
}

// NumRows returns the row count (0 for an empty frame).
func (f *Frame) NumRows() int {
	if len(f.Cols) == 0 {
		return 0
	}
	return f.Cols[0].Len()
}

// Col returns the column with the given name, or nil if absent.
func (f *Frame) Col(name string) *FrameCol {
	for i := range f.Cols {
		if f.Cols[i].Name == name {
			return &f.Cols[i]
		}
	}
	return nil
}

// Validate checks that all columns have equal length.
func (f *Frame) Validate() error {
	n := f.NumRows()
	for i := range f.Cols {
		if l := f.Cols[i].Len(); l != n {
			return fmt.Errorf("ml: column %q has %d rows, want %d", f.Cols[i].Name, l, n)
		}
	}
	return nil
}

// sliceRows returns a shallow frame containing rows [lo, hi).
func (f *Frame) sliceRows(lo, hi int) *Frame {
	out := &Frame{Cols: make([]FrameCol, len(f.Cols))}
	for i := range f.Cols {
		c := f.Cols[i]
		nc := FrameCol{Name: c.Name, Kind: c.Kind}
		if c.Kind == KindNumeric {
			nc.Nums = c.Nums[lo:hi]
		} else {
			nc.Strs = c.Strs[lo:hi]
		}
		out.Cols[i] = nc
	}
	return out
}
