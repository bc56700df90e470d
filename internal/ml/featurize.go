package ml

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode/utf8"
)

// ColumnEncoder turns one Frame column into Width() dense features. Encoders
// are fit once and then applied either row-at-a-time (the interpreted
// pipeline path) or column-at-a-time (the vectorized path).
type ColumnEncoder interface {
	Fit(col *FrameCol) error
	Width() int
	// EncodeInto writes Width() features for the given row into out.
	EncodeInto(col *FrameCol, row int, out []float64)
}

// StandardScaler standardizes a numeric column to zero mean, unit variance.
type StandardScaler struct {
	Mean  float64
	Scale float64 // standard deviation; 1 when the column is constant
}

// Fit computes mean and scale from the column.
func (s *StandardScaler) Fit(col *FrameCol) error {
	if col.Kind != KindNumeric {
		return fmt.Errorf("ml: StandardScaler requires a numeric column, got %v", col.Kind)
	}
	s.Mean = Mean(col.Nums)
	sd := math.Sqrt(Variance(col.Nums))
	if sd == 0 {
		sd = 1
	}
	s.Scale = sd
	return nil
}

// Width returns 1.
func (s *StandardScaler) Width() int { return 1 }

// EncodeInto writes the standardized value.
func (s *StandardScaler) EncodeInto(col *FrameCol, row int, out []float64) {
	out[0] = (col.Nums[row] - s.Mean) / s.Scale
}

// OneHotEncoder maps a categorical column to indicator features, one per
// category seen during Fit. Unseen categories encode to all zeros.
type OneHotEncoder struct {
	Categories []string       // sorted
	index      map[string]int // category -> slot
}

// Fit collects the distinct categories.
func (o *OneHotEncoder) Fit(col *FrameCol) error {
	if col.Kind != KindCategorical {
		return fmt.Errorf("ml: OneHotEncoder requires a categorical column, got %v", col.Kind)
	}
	set := map[string]bool{}
	for _, v := range col.Strs {
		set[v] = true
	}
	o.Categories = make([]string, 0, len(set))
	for v := range set {
		o.Categories = append(o.Categories, v)
	}
	sort.Strings(o.Categories)
	o.buildIndex()
	return nil
}

func (o *OneHotEncoder) buildIndex() {
	o.index = make(map[string]int, len(o.Categories))
	for i, v := range o.Categories {
		o.index[v] = i
	}
}

// restrict narrows the encoder to the given categories (in their current
// relative order), returning the indices of the surviving slots in the old
// encoding. The cross-optimizer uses this for stats-driven model compression.
func (o *OneHotEncoder) restrict(keep map[string]bool) []int {
	var kept []string
	var surviving []int
	for i, c := range o.Categories {
		if keep[c] {
			kept = append(kept, c)
			surviving = append(surviving, i)
		}
	}
	o.Categories = kept
	o.buildIndex()
	return surviving
}

// Width returns the number of categories.
func (o *OneHotEncoder) Width() int { return len(o.Categories) }

// EncodeInto writes the indicator vector.
func (o *OneHotEncoder) EncodeInto(col *FrameCol, row int, out []float64) {
	for i := range out[:len(o.Categories)] {
		out[i] = 0
	}
	if o.index == nil {
		o.buildIndex()
	}
	if slot, ok := o.index[col.Strs[row]]; ok {
		out[slot] = 1
	}
}

// HashingVectorizer featurizes free text with the hashing trick: tokens are
// lower-cased, split on non-letters, and hashed into Buckets counts.
type HashingVectorizer struct {
	Buckets int // defaults to 64
}

func (h *HashingVectorizer) buckets() int {
	if h.Buckets == 0 {
		return 64
	}
	return h.Buckets
}

// Fit is stateless for the hashing trick.
func (h *HashingVectorizer) Fit(col *FrameCol) error {
	if col.Kind != KindText {
		return fmt.Errorf("ml: HashingVectorizer requires a text column, got %v", col.Kind)
	}
	return nil
}

// Width returns the number of hash buckets.
func (h *HashingVectorizer) Width() int { return h.buckets() }

// CountTokens adds one to counts[b] for every token of text, where b is the
// token's 32-bit FNV-1a hash modulo len(counts). A token is a maximal run
// of the letters a-z after lower-casing. Training (EncodeInto) and the onnx
// scoring kernel both featurize text through this one walk, which is what
// keeps them bit-identical (the paper's "preserve the exact behavior
// crafted in the training environment"). ASCII text is lower-cased byte by
// byte and allocates nothing; any other text takes strings.ToLower first,
// because some non-ASCII runes lower-case to ASCII letters (U+212A KELVIN
// SIGN to 'k', U+0130 to 'i').
func CountTokens(text string, counts []float64) {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			text = strings.ToLower(text)
			break
		}
	}
	const offset32, prime32 = 2166136261, 16777619
	buckets := uint32(len(counts))
	h, inToken := uint32(offset32), false
	for i := 0; i < len(text); i++ {
		c := text[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'a' <= c && c <= 'z' {
			h = (h ^ uint32(c)) * prime32
			inToken = true
			continue
		}
		if inToken {
			counts[h%buckets]++
			h, inToken = offset32, false
		}
	}
	if inToken {
		counts[h%buckets]++
	}
}

// EncodeInto writes bucketed token counts.
func (h *HashingVectorizer) EncodeInto(col *FrameCol, row int, out []float64) {
	b := h.buckets()
	for i := range out[:b] {
		out[i] = 0
	}
	CountTokens(col.Strs[row], out[:b])
}

// FeatureSlot records where one source column lands in the feature matrix.
type FeatureSlot struct {
	ColName string
	Encoder ColumnEncoder
	Offset  int // first output feature index
}

// Featurizer is a column transformer: it applies one encoder per configured
// source column and concatenates the outputs into a single feature matrix.
type Featurizer struct {
	Slots []FeatureSlot
	width int
}

// NewFeaturizer returns an empty featurizer; add columns with With.
func NewFeaturizer() *Featurizer { return &Featurizer{} }

// With registers an encoder for the named column. Offsets are assigned
// during Fit.
func (ft *Featurizer) With(colName string, enc ColumnEncoder) *Featurizer {
	ft.Slots = append(ft.Slots, FeatureSlot{ColName: colName, Encoder: enc})
	return ft
}

// Fit fits every encoder on its column and lays out output offsets.
func (ft *Featurizer) Fit(f *Frame) error {
	off := 0
	for i := range ft.Slots {
		s := &ft.Slots[i]
		col := f.Col(s.ColName)
		if col == nil {
			return fmt.Errorf("ml: Featurizer.Fit: column %q not in frame", s.ColName)
		}
		if err := s.Encoder.Fit(col); err != nil {
			return fmt.Errorf("ml: Featurizer.Fit %q: %w", s.ColName, err)
		}
		s.Offset = off
		off += s.Encoder.Width()
	}
	ft.width = off
	return nil
}

// Width returns the total number of output features.
func (ft *Featurizer) Width() int { return ft.width }

// Transform featurizes the whole frame into a matrix (vectorized path).
func (ft *Featurizer) Transform(f *Frame) (*Matrix, error) {
	n := f.NumRows()
	out := NewMatrix(n, ft.width)
	for i := range ft.Slots {
		s := &ft.Slots[i]
		col := f.Col(s.ColName)
		if col == nil {
			return nil, fmt.Errorf("ml: Featurizer.Transform: column %q not in frame", s.ColName)
		}
		w := s.Encoder.Width()
		for r := 0; r < n; r++ {
			s.Encoder.EncodeInto(col, r, out.Row(r)[s.Offset:s.Offset+w])
		}
	}
	return out, nil
}

// TransformRow featurizes a single row into out, which must have length
// Width(). cols must be indexed identically to the frame used for Fit.
func (ft *Featurizer) TransformRow(cols []*FrameCol, row int, out []float64) {
	for i := range ft.Slots {
		s := &ft.Slots[i]
		w := s.Encoder.Width()
		s.Encoder.EncodeInto(cols[i], row, out[s.Offset:s.Offset+w])
	}
}
