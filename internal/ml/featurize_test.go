package ml

import (
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"
)

func TestStandardScaler(t *testing.T) {
	col := &FrameCol{Name: "x", Kind: KindNumeric, Nums: []float64{2, 4, 4, 4, 5, 5, 7, 9}}
	s := &StandardScaler{}
	if err := s.Fit(col); err != nil {
		t.Fatal(err)
	}
	if s.Mean != 5 || s.Scale != 2 {
		t.Fatalf("mean=%v scale=%v, want 5, 2", s.Mean, s.Scale)
	}
	out := make([]float64, 1)
	s.EncodeInto(col, 0, out)
	if !almostEq(out[0], -1.5, 1e-12) {
		t.Errorf("scaled = %v, want -1.5", out[0])
	}
}

func TestStandardScalerConstantColumn(t *testing.T) {
	col := &FrameCol{Name: "x", Kind: KindNumeric, Nums: []float64{3, 3, 3}}
	s := &StandardScaler{}
	if err := s.Fit(col); err != nil {
		t.Fatal(err)
	}
	if s.Scale != 1 {
		t.Errorf("constant column scale = %v, want 1", s.Scale)
	}
}

func TestStandardScalerKindMismatch(t *testing.T) {
	col := &FrameCol{Name: "x", Kind: KindCategorical, Strs: []string{"a"}}
	if err := (&StandardScaler{}).Fit(col); err == nil {
		t.Error("fitting a scaler on a categorical column should error")
	}
}

func TestOneHotEncoder(t *testing.T) {
	col := &FrameCol{Name: "c", Kind: KindCategorical, Strs: []string{"red", "blue", "red", "green"}}
	o := &OneHotEncoder{}
	if err := o.Fit(col); err != nil {
		t.Fatal(err)
	}
	if o.Width() != 3 {
		t.Fatalf("width = %d, want 3", o.Width())
	}
	// Categories are sorted: blue, green, red.
	out := make([]float64, 3)
	o.EncodeInto(col, 0, out) // "red"
	if out[0] != 0 || out[1] != 0 || out[2] != 1 {
		t.Errorf("encode(red) = %v", out)
	}
	// Unseen category encodes to zeros.
	unseen := &FrameCol{Name: "c", Kind: KindCategorical, Strs: []string{"purple"}}
	o.EncodeInto(unseen, 0, out)
	if out[0] != 0 || out[1] != 0 || out[2] != 0 {
		t.Errorf("encode(unseen) = %v, want zeros", out)
	}
}

func TestOneHotRestrict(t *testing.T) {
	col := &FrameCol{Name: "c", Kind: KindCategorical, Strs: []string{"a", "b", "c", "d"}}
	o := &OneHotEncoder{}
	if err := o.Fit(col); err != nil {
		t.Fatal(err)
	}
	surviving := o.Restrict(map[string]bool{"b": true, "d": true})
	if o.Width() != 2 {
		t.Fatalf("restricted width = %d, want 2", o.Width())
	}
	if len(surviving) != 2 || surviving[0] != 1 || surviving[1] != 3 {
		t.Errorf("surviving slots = %v, want [1 3]", surviving)
	}
	out := make([]float64, 2)
	o.EncodeInto(col, 3, out) // "d" -> slot 1 now
	if out[0] != 0 || out[1] != 1 {
		t.Errorf("encode(d) after restrict = %v", out)
	}
	o.EncodeInto(col, 0, out) // "a" was dropped -> zeros
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("encode(dropped) = %v, want zeros", out)
	}
}

func TestHashingVectorizer(t *testing.T) {
	col := &FrameCol{Name: "t", Kind: KindText, Strs: []string{"Hello hello WORLD", ""}}
	h := &HashingVectorizer{Buckets: 16}
	if err := h.Fit(col); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 16)
	h.EncodeInto(col, 0, out)
	var total float64
	for _, v := range out {
		total += v
	}
	if total != 3 { // three tokens
		t.Errorf("token count = %v, want 3", total)
	}
	// "hello" appears twice and must land in one bucket with count 2.
	if out[hashTokenRef("hello", 16)] != 2 {
		t.Errorf("hello bucket = %v, want 2", out[hashTokenRef("hello", 16)])
	}
	h.EncodeInto(col, 1, out)
	for _, v := range out {
		if v != 0 {
			t.Error("empty text should encode to zeros")
		}
	}
}

// tokenizeRef and hashTokenRef are the text featurizer CountTokens
// replaced: lower-case, split on every rune outside a-z, FNV-1a each token.
// They stay here as the reference CountTokens must match bucket for bucket.
func tokenizeRef(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return r < 'a' || r > 'z'
	})
}

func hashTokenRef(tok string, buckets int) int {
	f := fnv.New32a()
	f.Write([]byte(tok))
	return int(f.Sum32() % uint32(buckets))
}

func countTokensRef(s string, buckets int) []float64 {
	counts := make([]float64, buckets)
	for _, tok := range tokenizeRef(s) {
		counts[hashTokenRef(tok, buckets)]++
	}
	return counts
}

func TestTokenize(t *testing.T) {
	got := tokenizeRef("The quick-brown fox, 42 times!")
	want := []string{"the", "quick", "brown", "fox", "times"}
	if len(got) != len(want) {
		t.Fatalf("tokenizeRef = %v, want %v", got, want)
	}
	counts := make([]float64, 1024)
	CountTokens("The quick-brown fox, 42 times!", counts)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
		if counts[hashTokenRef(want[i], 1024)] == 0 {
			t.Errorf("CountTokens missed token %q", want[i])
		}
	}
}

// TestCountTokensMatchesReference is the differential test of the one
// token-hashing walk against the reference tokenizer and hash, including
// non-ASCII runes that lower-case to ASCII letters, invalid UTF-8, and
// bucket counts that are not powers of two.
func TestCountTokensMatchesReference(t *testing.T) {
	texts := []string{
		"", " ", "a", "Z", "Hello hello WORLD", "The quick-brown fox, 42 times!",
		"late_payment;disputed\tcharge\nLOYAL", "--a--b--", "abc123def",
		"\u212Aelvin", "ma\u212A", "\u0130stanbul", "D\u0130YARBAKIR", "\u0131\u0130i",
		"caf\u00e9 cr\u00e8me BR\u00dbL\u00c9E", "\u00c0\u00c1\u00c2", "\u03a3\u03b9\u03c3\u03c5\u03c6\u03bf\u03c2 word",
		"\xff\xfeabc\x80def", "ab\xc3", "\xe2\x84", "x\u200by", "\ufb00ab",
		"renewal call scheduled support ticket open", "MiXeD CaSe WoRdS",
	}
	for _, buckets := range []int{1, 7, 16, 32, 64, 1000} {
		for _, text := range texts {
			want := countTokensRef(text, buckets)
			got := make([]float64, buckets)
			CountTokens(text, got)
			for b := range want {
				if got[b] != want[b] {
					t.Fatalf("CountTokens(%q, %d): bucket %d = %v, reference %v", text, buckets, b, got[b], want[b])
				}
			}
		}
	}
	prop := func(text string, pick uint8) bool {
		buckets := 1 + int(pick)
		want := countTokensRef(text, buckets)
		got := make([]float64, buckets)
		CountTokens(text, got)
		for b := range want {
			if got[b] != want[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCountTokensAllocatesNothingOnASCII(t *testing.T) {
	counts := make([]float64, 32)
	allocs := testing.AllocsPerRun(100, func() {
		CountTokens("Escalated billing dispute TWICE this quarter", counts)
	})
	if allocs != 0 {
		t.Errorf("CountTokens on ASCII text allocates %v times per call", allocs)
	}
}

func testFrame() *Frame {
	return NewFrame().
		AddNumeric("age", []float64{30, 40, 50, 60}).
		AddCategorical("region", []string{"us", "eu", "us", "apac"}).
		AddText("notes", []string{"good customer", "late payment", "", "good"})
}

func testFeaturizer() *Featurizer {
	return NewFeaturizer().
		With("age", &StandardScaler{}).
		With("region", &OneHotEncoder{}).
		With("notes", &HashingVectorizer{Buckets: 8})
}

func TestFeaturizerLayout(t *testing.T) {
	f := testFrame()
	ft := testFeaturizer()
	if err := ft.Fit(f); err != nil {
		t.Fatal(err)
	}
	if ft.Width() != 1+3+8 {
		t.Fatalf("width = %d, want 12", ft.Width())
	}
	if ft.Slots[1].Offset != 1 || ft.Slots[2].Offset != 4 {
		t.Errorf("offsets = %d, %d, want 1, 4", ft.Slots[1].Offset, ft.Slots[2].Offset)
	}
	x, err := ft.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 4 || x.Cols != 12 {
		t.Fatalf("transform shape = %dx%d", x.Rows, x.Cols)
	}
}

func TestFeaturizerRowMatchesBatch(t *testing.T) {
	f := testFrame()
	ft := testFeaturizer()
	if err := ft.Fit(f); err != nil {
		t.Fatal(err)
	}
	x, err := ft.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	cols := []*FrameCol{f.Col("age"), f.Col("region"), f.Col("notes")}
	buf := make([]float64, ft.Width())
	for r := 0; r < f.NumRows(); r++ {
		ft.TransformRow(cols, r, buf)
		for j, v := range buf {
			if v != x.At(r, j) {
				t.Fatalf("row path differs from batch path at (%d,%d): %v vs %v", r, j, v, x.At(r, j))
			}
		}
	}
}

func TestFeaturizerMissingColumn(t *testing.T) {
	ft := NewFeaturizer().With("nope", &StandardScaler{})
	if err := ft.Fit(testFrame()); err == nil {
		t.Error("missing column should error")
	}
}

func TestFrameValidate(t *testing.T) {
	f := NewFrame().AddNumeric("a", []float64{1, 2}).AddCategorical("b", []string{"x"})
	if err := f.Validate(); err == nil {
		t.Error("ragged frame should fail validation")
	}
	if err := testFrame().Validate(); err != nil {
		t.Errorf("valid frame failed: %v", err)
	}
}

func TestFrameSlice(t *testing.T) {
	f := testFrame()
	s := f.Slice(1, 3)
	if s.NumRows() != 2 {
		t.Fatalf("slice rows = %d", s.NumRows())
	}
	if s.Col("age").Nums[0] != 40 || s.Col("region").Strs[1] != "us" {
		t.Error("slice contents wrong")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	// Binary target correlated with age and region.
	r := NewRand(13)
	n := 400
	ages := make([]float64, n)
	regions := make([]string, n)
	notes := make([]string, n)
	y := make([]float64, n)
	regionNames := []string{"us", "eu", "apac"}
	for i := 0; i < n; i++ {
		ages[i] = 20 + r.Float64()*50
		regions[i] = regionNames[r.Intn(3)]
		notes[i] = "customer note"
		score := (ages[i]-45)/10 + map[string]float64{"us": 1, "eu": 0, "apac": -1}[regions[i]]
		if score > 0 {
			y[i] = 1
		}
	}
	f := NewFrame().AddNumeric("age", ages).AddCategorical("region", regions).AddText("notes", notes)
	p := NewPipeline("risk",
		NewFeaturizer().
			With("age", &StandardScaler{}).
			With("region", &OneHotEncoder{}).
			With("notes", &HashingVectorizer{Buckets: 4}),
		&GradientBoosting{NTrees: 40, MaxDepth: 3, Loss: LossLogistic})
	if err := p.Fit(f, y); err != nil {
		t.Fatal(err)
	}
	rowPred, err := p.Predict(f)
	if err != nil {
		t.Fatal(err)
	}
	batchPred, err := p.PredictBatch(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rowPred {
		if !almostEq(rowPred[i], batchPred[i], 1e-12) {
			t.Fatalf("row vs batch mismatch at %d: %v vs %v", i, rowPred[i], batchPred[i])
		}
	}
	if acc := Accuracy(batchPred, y); acc < 0.9 {
		t.Errorf("pipeline accuracy = %v, want >= 0.9", acc)
	}
	cols := p.InputColumns()
	if len(cols) != 3 || cols[0] != "age" {
		t.Errorf("InputColumns = %v", cols)
	}
}

func TestPipelineErrors(t *testing.T) {
	p := &Pipeline{}
	if err := p.Fit(testFrame(), nil); err == nil {
		t.Error("pipeline without parts should error on Fit")
	}
	p = NewPipeline("x", testFeaturizer(), &LinearRegression{})
	f := testFrame()
	if err := p.Fit(f, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	bad := NewFrame().AddNumeric("age", []float64{1})
	if _, err := p.Predict(bad); err == nil {
		t.Error("predicting with missing columns should error")
	}
	if _, err := p.PredictBatch(bad); err == nil {
		t.Error("batch predicting with missing columns should error")
	}
}

// Property: one-hot encoding always produces at most a single 1 and the rest
// zeros, for arbitrary category strings.
func TestOneHotProperty(t *testing.T) {
	f := func(cats []string, probe string) bool {
		if len(cats) == 0 {
			return true
		}
		col := &FrameCol{Name: "c", Kind: KindCategorical, Strs: cats}
		o := &OneHotEncoder{}
		if err := o.Fit(col); err != nil {
			return false
		}
		out := make([]float64, o.Width())
		pc := &FrameCol{Name: "c", Kind: KindCategorical, Strs: []string{probe}}
		o.EncodeInto(pc, 0, out)
		ones := 0
		for _, v := range out {
			if v == 1 {
				ones++
			} else if v != 0 {
				return false
			}
		}
		return ones <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
