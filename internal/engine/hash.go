package engine

// Typed multi-column hashing for the aggregate/distinct/join hot paths, and
// the hash-join build table (the group tables are localGroups in
// exec_parallel.go). Key columns are hashed over their raw representation (int64 bits, normalized
// float64 bits, string bytes) and equality is checked column-wise, so the
// steady state allocates nothing per row.
//
// Float keys are normalized before hashing: -0.0 hashes and compares equal
// to +0.0, and every NaN collapses to one canonical pattern (the old "%g"
// encoding split -0.0 from 0.0 and could collide distinct high-precision
// values through formatting).

import "math"

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	nullKeyHash = 0x9E3779B97F4A7C15 // distinguishes NULL from any value
	canonNaN    = 0x7FF8000000000001 // one bit pattern for every NaN
)

// mix64 is the splitmix64 finalizer; it spreads low-entropy values (small
// ints, float bit patterns) across the table.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// normFloatBits canonicalizes a float for hashing: +0/-0 collapse to one
// pattern and all NaNs to another, so hash equality follows value equality.
func normFloatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return canonNaN
	}
	return math.Float64bits(f)
}

// keyMode selects the representation a key column is hashed and compared
// under. A join between an int and a float column compares numerically
// (modeFloat on both sides), matching the scalar Compare semantics.
type keyMode uint8

const (
	modeInt keyMode = iota
	modeFloat
	modeStr
	modeBool
	// modeNone marks an incomparable pair (e.g. text vs int): no row can
	// match, as a Compare error means no match in an equality.
	modeNone
)

// vecKeyModes derives per-column modes for single-sided keys (group by,
// distinct).
func vecKeyModes(keys []*Vec) []keyMode {
	modes := make([]keyMode, len(keys))
	for i, v := range keys {
		switch v.Type {
		case TypeInt:
			modes[i] = modeInt
		case TypeFloat:
			modes[i] = modeFloat
		case TypeString:
			modes[i] = modeStr
		case TypeBool:
			modes[i] = modeBool
		}
	}
	return modes
}

// pairKeyModes derives modes for join key pairs; ok is false when some pair
// can never compare equal.
func pairKeyModes(left, right []*Vec) (modes []keyMode, ok bool) {
	modes = make([]keyMode, len(left))
	ok = true
	for i := range left {
		lt, rt := left[i].Type, right[i].Type
		switch {
		case lt == TypeInt && rt == TypeInt:
			modes[i] = modeInt
		case isNumeric(lt) && isNumeric(rt):
			modes[i] = modeFloat
		case lt == TypeString && rt == TypeString:
			modes[i] = modeStr
		case lt == TypeBool && rt == TypeBool:
			modes[i] = modeBool
		default:
			modes[i] = modeNone
			ok = false
		}
	}
	return modes, ok
}

// hashKeyRow combines the key columns of logical row r into one hash.
func hashKeyRow(keys []*Vec, modes []keyMode, r int) uint64 {
	h := uint64(fnvOffset64)
	for k, v := range keys {
		var hv uint64
		i := v.idx(r)
		switch {
		case v.Nulls != nil && v.Nulls[i]:
			hv = nullKeyHash
		case modes[k] == modeInt:
			hv = mix64(uint64(v.Ints[i]))
		case modes[k] == modeFloat:
			var f float64
			if v.Type == TypeInt {
				f = float64(v.Ints[i])
			} else {
				f = v.Floats[i]
			}
			hv = mix64(normFloatBits(f))
		case modes[k] == modeStr:
			hv = fnvOffset64
			s := v.Strs[i]
			for j := 0; j < len(s); j++ {
				hv ^= uint64(s[j])
				hv *= fnvPrime64
			}
		case modes[k] == modeBool:
			hv = 1
			if v.Bools[i] {
				hv = 2
			}
		}
		h = (h ^ hv) * fnvPrime64
	}
	return mix64(h)
}

// keyRowsEqual compares row ar of keys a against row br of keys b under the
// shared modes. NULL equals only NULL (how the old encoding behaved); NaN
// equals NaN and -0.0 equals +0.0.
func keyRowsEqual(a []*Vec, ar int, b []*Vec, br int, modes []keyMode) bool {
	for k := range a {
		av, bv := a[k], b[k]
		ai, bi := av.idx(ar), bv.idx(br)
		an := av.Nulls != nil && av.Nulls[ai]
		bn := bv.Nulls != nil && bv.Nulls[bi]
		if an || bn {
			if an && bn {
				continue
			}
			return false
		}
		switch modes[k] {
		case modeInt:
			if av.Ints[ai] != bv.Ints[bi] {
				return false
			}
		case modeFloat:
			var x, y float64
			if av.Type == TypeInt {
				x = float64(av.Ints[ai])
			} else {
				x = av.Floats[ai]
			}
			if bv.Type == TypeInt {
				y = float64(bv.Ints[bi])
			} else {
				y = bv.Floats[bi]
			}
			if x != y && !(x != x && y != y) { // NaN groups with NaN
				return false
			}
		case modeStr:
			if av.Strs[ai] != bv.Strs[bi] {
				return false
			}
		case modeBool:
			if av.Bools[ai] != bv.Bools[bi] {
				return false
			}
		case modeNone:
			return false
		}
	}
	return true
}

// tableCap returns the open-addressing capacity for n keys (power of two,
// ≥ 2n so the load factor stays under 0.5).
func tableCap(n int) int {
	c := 16
	for c < 2*n {
		c <<= 1
	}
	return c
}

// partedJoinTable is the build side of a hash join (buildJoinIndex): build
// rows are radix-partitioned by the high bits of their key hash, and each
// partition holds an independent open-addressing table built as one task
// (one partition at one worker). A bucket chains build rows through next,
// which is indexed by build row and shared by the partitions (each writes
// only its own rows). Probes hash once, select the partition, and chain
// through it; chains read in ascending build-row order, so probe output is
// in build-row order at any worker count.
type partedJoinTable struct {
	keys  []*Vec
	modes []keyMode
	parts []joinPart
	next  []int32 // next build row in the same bucket, -1 at the end
	shift uint    // partition id = hash >> shift
}

// joinPart is one partition's bucket heads (build rows, -1 empty).
type joinPart struct {
	slots []int32
	mask  uint64
}

// buildJoinPart indexes one partition's build rows (ascending); hashes and
// next are indexed by build row. Inserting in reverse leaves every bucket
// chain in ascending build-row order.
func buildJoinPart(rows []int32, hashes []uint64, next []int32) joinPart {
	capacity := tableCap(len(rows))
	jp := joinPart{slots: make([]int32, capacity), mask: uint64(capacity - 1)}
	for i := range jp.slots {
		jp.slots[i] = -1
	}
	for i := len(rows) - 1; i >= 0; i-- {
		r := rows[i]
		p := hashes[r] & jp.mask
		next[r] = jp.slots[p]
		jp.slots[p] = r
	}
	return jp
}

// probe appends the build rows matching probe row l (of probeKeys) to dst,
// in build order.
func (pt *partedJoinTable) probe(probeKeys []*Vec, l int, dst []int32) []int32 {
	h := hashKeyRow(probeKeys, pt.modes, l)
	jp := &pt.parts[h>>pt.shift]
	for e := jp.slots[h&jp.mask]; e >= 0; e = pt.next[e] {
		if keyRowsEqual(probeKeys, l, pt.keys, int(e), pt.modes) {
			dst = append(dst, e)
		}
	}
	return dst
}

// distinctKey is the per-group key for DISTINCT aggregates: the group id
// plus one typed value (floats store normalized bits in i so NaN keys
// behave; strings use s). No string encoding, no allocation.
type distinctKey struct {
	g    int32
	null bool
	i    int64
	s    string
}

// distinctKeyAt builds the map key for logical row r of v within group g.
func distinctKeyAt(v *Vec, r int, g int32) distinctKey {
	i := v.idx(r)
	if v.Nulls != nil && v.Nulls[i] {
		return distinctKey{g: g, null: true}
	}
	switch v.Type {
	case TypeInt:
		return distinctKey{g: g, i: v.Ints[i]}
	case TypeFloat:
		return distinctKey{g: g, i: int64(normFloatBits(v.Floats[i]))}
	case TypeString:
		return distinctKey{g: g, s: v.Strs[i]}
	case TypeBool:
		if v.Bools[i] {
			return distinctKey{g: g, i: 1}
		}
		return distinctKey{g: g}
	}
	return distinctKey{g: g, null: true}
}
