package wire

// Coverage here is over what can be wrong with a page — column type ×
// value class × how rows fall into chunks — rather than over lines: every
// cell of that grid round-trips bit-exactly, every way a frame can lie
// about its own size is an error, and the warm decode path is held to its
// allocation budget by counting.

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

// column is a typed source column a test page is cut from.
type column struct {
	typ    Type
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
}

// Value classes, cycled through so every chunk shape sees all of them.
var (
	intClasses   = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1<<53 + 1}
	floatClasses = []float64{
		0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000bad), // a NaN with a payload
		math.SmallestNonzeroFloat64,              // subnormal
		math.MaxFloat64, -math.MaxFloat64, 1e-310,
	}
	stringClasses = []string{"", "a", "nul\x00inside", `quote"and\slash`, "naïve — 雪 🙂", "\xff\xfe not utf-8", strings.Repeat("x", 300)}
	boolClasses   = []bool{true, false, false, true, true}
)

func sourceColumn(t Type, n int) column {
	c := column{typ: t}
	for i := 0; i < n; i++ {
		switch t {
		case Int64:
			c.ints = append(c.ints, intClasses[i%len(intClasses)])
		case Float64:
			c.floats = append(c.floats, floatClasses[i%len(floatClasses)])
		case String:
			c.strs = append(c.strs, stringClasses[i%len(stringClasses)])
		case Bool:
			c.bools = append(c.bools, boolClasses[i%len(boolClasses)])
		}
	}
	return c
}

// encodePage cuts cols into chunks of the given sizes, the way the server
// cuts a page out of a parked batch tail and the batches after it.
func encodePage(t testing.TB, e *Encoder, cols []column, chunks []int, done bool) []byte {
	t.Helper()
	types := make([]Type, len(cols))
	for i, c := range cols {
		types[i] = c.typ
	}
	e.Begin(types)
	lo := 0
	for _, n := range chunks {
		hi := lo + n
		e.Rows(n)
		for _, c := range cols {
			switch c.typ {
			case Int64:
				e.Ints(c.ints[lo:hi])
			case Float64:
				e.Floats(c.floats[lo:hi])
			case String:
				e.Strings(c.strs[lo:hi])
			case Bool:
				e.Bools(c.bools[lo:hi])
			}
		}
		lo = hi
	}
	frame, err := e.Finish(done)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return frame
}

func checkPage(t *testing.T, p *Page, cols []column, n int, done bool) {
	t.Helper()
	if p.N != n || p.Done != done || len(p.Cols) != len(cols) {
		t.Fatalf("page is %d rows × %d cols, done=%v; want %d × %d, done=%v", p.N, len(p.Cols), p.Done, n, len(cols), done)
	}
	for ci, want := range cols {
		got := &p.Cols[ci]
		if got.Type != want.typ {
			t.Fatalf("column %d has type %v, want %v", ci, got.Type, want.typ)
		}
		if len(got.Ints)+len(got.Floats)+len(got.Strs)+len(got.Bools) != n {
			t.Fatalf("column %d holds %d+%d+%d+%d values, want %d in its own slice only",
				ci, len(got.Ints), len(got.Floats), len(got.Strs), len(got.Bools), n)
		}
		for i := 0; i < n; i++ {
			switch want.typ {
			case Int64:
				if got.Ints[i] != want.ints[i] {
					t.Fatalf("col %d row %d: %d, want %d", ci, i, got.Ints[i], want.ints[i])
				}
			case Float64:
				if math.Float64bits(got.Floats[i]) != math.Float64bits(want.floats[i]) {
					t.Fatalf("col %d row %d: bits %#x, want %#x", ci, i, math.Float64bits(got.Floats[i]), math.Float64bits(want.floats[i]))
				}
			case String:
				if got.Strs[i] != want.strs[i] {
					t.Fatalf("col %d row %d: %q, want %q", ci, i, got.Strs[i], want.strs[i])
				}
			case Bool:
				if got.Bools[i] != want.bools[i] {
					t.Fatalf("col %d row %d: %v, want %v", ci, i, got.Bools[i], want.bools[i])
				}
			}
		}
	}
}

func TestPageRoundTrip(t *testing.T) {
	shapes := []struct {
		name   string
		chunks []int
	}{
		{"empty page", nil},
		{"one row", []int{1}},
		{"exact page", []int{500}},
		{"parked tail and two batches", []int{3, 64, 41}},
		{"an empty batch between two", []int{5, 0, 7}},
	}
	layouts := [][]Type{
		{Int64}, {Float64}, {String}, {Bool},
		{Int64, Float64, Float64, Float64, String, String}, // wide_rows
		{Bool, String, Int64, String, Float64},
	}
	var e Encoder // one encoder and one page across every case: reuse is part of the contract
	var p Page
	for _, shape := range shapes {
		for _, layout := range layouts {
			n := 0
			for _, c := range shape.chunks {
				n += c
			}
			cols := make([]column, len(layout))
			for i, typ := range layout {
				cols[i] = sourceColumn(typ, n)
			}
			for _, done := range []bool{false, true} {
				frame := encodePage(t, &e, cols, shape.chunks, done)
				if err := p.Decode(frame); err != nil {
					t.Fatalf("%s %v: decode: %v", shape.name, layout, err)
				}
				checkPage(t, &p, cols, n, done)
			}
		}
	}
}

func TestPageLargeString(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 1<<16) // 1 MB
	cols := []column{{typ: String, strs: []string{"before", big, ""}}, {typ: Int64, ints: []int64{1, 2, 3}}}
	var e Encoder
	var p Page
	if err := p.Decode(encodePage(t, &e, cols, []int{1, 2}, true)); err != nil {
		t.Fatal(err)
	}
	checkPage(t, &p, cols, 3, true)
}

// A decoded page must not alias the frame: the SDK reuses its body buffer
// for the next fetch while the caller still holds scanned strings.
func TestDecodedStringsSurviveFrameReuse(t *testing.T) {
	cols := []column{{typ: String, strs: []string{"keep", "me"}}}
	var e Encoder
	var p Page
	frame := encodePage(t, &e, cols, []int{2}, false)
	if err := p.Decode(frame); err != nil {
		t.Fatal(err)
	}
	a, b := p.Cols[0].Strs[0], p.Cols[0].Strs[1]
	for i := range frame {
		frame[i] = 0xAA
	}
	if a != "keep" || b != "me" {
		t.Fatalf("strings changed with the frame: %q %q", a, b)
	}
}

func TestEncoderRejectsMisuse(t *testing.T) {
	cases := []struct {
		name  string
		build func(e *Encoder)
	}{
		{"wrong column type", func(e *Encoder) { e.Begin([]Type{Int64}); e.Rows(1); e.Floats([]float64{1}) }},
		{"wrong column length", func(e *Encoder) { e.Begin([]Type{Int64}); e.Rows(2); e.Ints([]int64{1}) }},
		{"too many columns", func(e *Encoder) { e.Begin([]Type{Int64}); e.Rows(1); e.Ints([]int64{1}); e.Ints([]int64{1}) }},
		{"chunk left unfinished", func(e *Encoder) { e.Begin([]Type{Int64, Bool}); e.Rows(1); e.Ints([]int64{1}) }},
		{"chunk opened over an unfinished one", func(e *Encoder) {
			e.Begin([]Type{Int64, Bool})
			e.Rows(1)
			e.Ints([]int64{1})
			e.Rows(1)
			e.Ints([]int64{1})
			e.Bools([]bool{true})
		}},
		{"values after an empty chunk", func(e *Encoder) { e.Begin([]Type{Int64}); e.Rows(0); e.Ints([]int64{1}) }},
		{"rows without columns", func(e *Encoder) { e.Begin(nil); e.Rows(3) }},
		{"column with no type", func(e *Encoder) { e.Begin([]Type{0}); e.Rows(1) }},
	}
	var e Encoder
	for _, tc := range cases {
		tc.build(&e)
		if frame, err := e.Finish(false); err == nil {
			t.Errorf("%s: Finish returned a %d-byte frame, want an error", tc.name, len(frame))
		}
	}
	// The encoder recovers with the next Begin.
	e.Begin([]Type{Bool})
	e.Rows(1)
	e.Bools([]bool{true})
	if _, err := e.Finish(true); err != nil {
		t.Fatalf("encoder did not recover after misuse: %v", err)
	}
}

// frame builds a raw frame by hand, so the decoder is tested against bytes
// the encoder would never write.
func rawFrame(version, flags byte, tags []byte, rest ...[]byte) []byte {
	f := append([]byte("FLKP"), version, flags)
	f = binary.LittleEndian.AppendUint16(f, uint16(len(tags)))
	f = append(f, tags...)
	for _, r := range rest {
		f = append(f, r...)
	}
	return f
}

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"empty", nil, "not a page frame"},
		{"JSON", []byte(`{"columns":["id"],"rows":[[1]],"done":true}`), "not a page frame"},
		{"short header", []byte("FLKP\x01"), "not a page frame"},
		{"future version", rawFrame(2, 0, []byte{1}), "version 2"},
		{"version zero", rawFrame(0, 0, []byte{1}), "version 0"},
		{"unknown flag", rawFrame(1, 2, []byte{1}), "flags"},
		{"more columns than bytes", append([]byte("FLKP\x01\x00"), 0xff, 0xff), "columns declared"},
		{"type tag zero", rawFrame(1, 0, []byte{0}), "type tag 0"},
		{"type tag five", rawFrame(1, 0, []byte{1, 5}), "type tag 5"},
		{"truncated chunk header", rawFrame(1, 0, []byte{1}, []byte{1, 0}), "truncated chunk header"},
		{"zero-row chunk", rawFrame(1, 0, []byte{1}, u32(0)), "empty chunk"},
		{"rows without columns", rawFrame(1, 0, nil, u32(7)), "empty chunk"},
		{"int column short by a byte", rawFrame(1, 0, []byte{1}, u32(1), u64(9)[:7]), "values declared"},
		{"four billion ints in twelve bytes", rawFrame(1, 0, []byte{1}, u32(math.MaxUint32), u64(1)), "values declared"},
		{"four billion floats", rawFrame(1, 0, []byte{2}, u32(math.MaxUint32), u64(1)), "values declared"},
		{"four billion bools", rawFrame(1, 0, []byte{4}, u32(math.MaxUint32), []byte{1}), "values declared"},
		{"four billion strings", rawFrame(1, 0, []byte{3}, u32(math.MaxUint32), u32(1)), "values declared"},
		{"string bytes past the end", rawFrame(1, 0, []byte{3}, u32(1), u32(5), []byte("abcd")), "string bytes declared"},
		{"string lengths that overflow 32 bits together", rawFrame(1, 0, []byte{3}, u32(2), u32(math.MaxUint32), u32(math.MaxUint32), []byte("ab")), "string bytes declared"},
		{"bool byte two", rawFrame(1, 0, []byte{4}, u32(1), []byte{2}), "bool byte"},
		{"second column missing", rawFrame(1, 0, []byte{1, 1}, u32(1), u64(9)), "values declared"},
		{"trailing garbage", rawFrame(1, 1, []byte{1}, u32(1), u64(9), []byte{0}), "truncated chunk header"},
		{"trailing chunk-sized garbage", rawFrame(1, 1, []byte{4}, u32(1), []byte{1}, u32(1)), "values declared"},
	}
	var p Page
	for _, tc := range cases {
		err := p.Decode(tc.frame)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
		if p.N != 0 || len(p.Cols) != 0 || p.Done {
			t.Errorf("%s: a failed decode left %d rows × %d cols, done=%v", tc.name, p.N, len(p.Cols), p.Done)
		}
	}
}

// A frame that claims far more than it carries must fail before anything
// is allocated for the claim: the bytes allocated on the way to the error
// are the error's own, whatever row count or string length the frame names.
func TestHostileCountsAllocateNothing(t *testing.T) {
	frames := [][]byte{
		rawFrame(1, 0, []byte{1}, u32(math.MaxUint32), u64(1)),
		rawFrame(1, 0, []byte{3}, u32(1<<20), make([]byte, 1024)),
		rawFrame(1, 0, []byte{3}, u32(1), u32(math.MaxUint32), []byte("x")),
		append([]byte("FLKP\x01\x00"), 0xff, 0xff),
	}
	var p Page
	var before, after runtime.MemStats
	for i, f := range frames {
		runtime.ReadMemStats(&before)
		if p.Decode(f) == nil {
			t.Fatalf("frame %d: hostile frame decoded", i)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1024 {
			t.Errorf("frame %d: %d bytes allocated on the way to the error", i, got)
		}
	}
}

// widePage is the wide_rows page: 500 rows of (int, float, float, float,
// string, string).
func widePage(t testing.TB) []byte {
	layout := []Type{Int64, Float64, Float64, Float64, String, String}
	cols := make([]column, len(layout))
	for i, typ := range layout {
		cols[i] = sourceColumn(typ, 500)
	}
	var e Encoder
	return bytes.Clone(encodePage(t, &e, cols, []int{500}, false))
}

func TestDecodeAllocations(t *testing.T) {
	frame := widePage(t)
	var p Page
	if err := p.Decode(frame); err != nil { // warm the column buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := p.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("decoding a warm 500×6 page allocates %v objects, want at most one per string column (2)", allocs)
	}
}

func TestEncodeAllocations(t *testing.T) {
	layout := []Type{Int64, Float64, Float64, Float64, String, String}
	cols := make([]column, len(layout))
	for i, typ := range layout {
		cols[i] = sourceColumn(typ, 500)
	}
	var e Encoder
	encodePage(t, &e, cols, []int{500}, false) // warm the buffer
	types := append([]Type(nil), layout...)
	allocs := testing.AllocsPerRun(50, func() {
		e.Begin(types)
		e.Rows(500)
		e.Ints(cols[0].ints)
		e.Floats(cols[1].floats)
		e.Floats(cols[2].floats)
		e.Floats(cols[3].floats)
		e.Strings(cols[4].strs)
		e.Strings(cols[5].strs)
		if _, err := e.Finish(false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoding into a warm buffer allocates %v objects, want 0", allocs)
	}
}

// FuzzPageDecode: whatever the bytes, Decode returns an error or a
// well-formed page — never a panic, never columns of unequal length — and a
// page it accepts re-encodes to a frame that decodes to the same page.
func FuzzPageDecode(f *testing.F) {
	var e Encoder
	// Small seeds: the mutator works on bytes, and a short frame leaves it
	// more executions per second to spend on the counts and lengths.
	mixed := []column{sourceColumn(Bool, 6), sourceColumn(String, 6), sourceColumn(Int64, 6), sourceColumn(Float64, 6)}
	seeds := [][]byte{
		bytes.Clone(encodePage(f, &e, nil, nil, true)),
		bytes.Clone(encodePage(f, &e, mixed[:1], []int{6}, false)),
		bytes.Clone(encodePage(f, &e, mixed[1:2], []int{6}, false)),
		bytes.Clone(encodePage(f, &e, mixed, []int{2, 4}, true)),
	}
	for _, s := range seeds {
		f.Add(s)
		for _, cut := range []int{1, 5, 8, len(s) / 2, len(s) - 1} {
			if cut < len(s) {
				f.Add(s[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var p Page
		if err := p.Decode(frame); err != nil {
			if p.N != 0 || len(p.Cols) != 0 {
				t.Fatalf("failed decode left %d rows × %d cols", p.N, len(p.Cols))
			}
			return
		}
		cols := make([]column, len(p.Cols))
		for i := range p.Cols {
			c := &p.Cols[i]
			cols[i] = column{c.Type, c.Ints, c.Floats, c.Strs, c.Bools}
			if len(c.Ints)+len(c.Floats)+len(c.Strs)+len(c.Bools) != p.N {
				t.Fatalf("column %d of a %d-row page holds %d/%d/%d/%d values", i, p.N, len(c.Ints), len(c.Floats), len(c.Strs), len(c.Bools))
			}
		}
		var chunks []int
		if p.N > 0 {
			chunks = []int{p.N}
		}
		var e Encoder
		var again Page
		if err := again.Decode(encodePage(t, &e, cols, chunks, p.Done)); err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		if again.N != p.N || again.Done != p.Done || len(again.Cols) != len(p.Cols) {
			t.Fatalf("re-encoded page is %d×%d done=%v, was %d×%d done=%v", again.N, len(again.Cols), again.Done, p.N, len(p.Cols), p.Done)
		}
	})
}
