package engine

// The machinery the breakers in exec.go share across workers: per-worker
// group tables and their first-occurrence merge (GROUP BY, DISTINCT), the
// accumulator folds, the radix-partitioned hash-join build, and the run
// merge of ORDER BY. Each operator has exactly one implementation, run at
// ex.workers(n) workers; one worker is the same code with one table, one
// partition or one chunk, and nothing to merge. The answer is the same at
// every worker count, except that non-DISTINCT float sums re-associate their
// additions and so may differ in rounding.

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/opt"
)

// localGroups is one worker's (or the merge phase's) group hash table: open
// addressing over group hashes, growing as groups appear. groupRows holds
// the first input row of each group in discovery order. The zero value is
// an empty table; gidFor allocates its slots on the first keyed row.
type localGroups struct {
	slots     []int32 // open-addressing table of group ids (-1 empty)
	mask      uint64
	groupRows []int32  // first row of each group, in discovery order
	hashes    []uint64 // group hash, for rehashing without re-reading keys
}

// setSlots installs an empty open-addressing table of n slots (a power of
// two).
func (lg *localGroups) setSlots(n int) {
	lg.slots = make([]int32, n)
	for i := range lg.slots {
		lg.slots[i] = -1
	}
	lg.mask = uint64(n - 1)
}

// assign writes the group id of every row in [lo, hi) to gids. With no key
// columns every row is group 0: gids (zeroed by the caller) stay as they are
// and nothing is hashed.
func (lg *localGroups) assign(keys []*Vec, modes []keyMode, gids []int32, lo, hi int) {
	if len(keys) == 0 {
		if len(lg.groupRows) == 0 {
			lg.groupRows = append(lg.groupRows, int32(lo))
		}
		return
	}
	for r := lo; r < hi; r++ {
		gids[r] = lg.gidFor(keys, modes, r)
	}
}

// gidFor returns the group id of row r, inserting a new group when the key
// is unseen.
func (lg *localGroups) gidFor(keys []*Vec, modes []keyMode, r int) int32 {
	if lg.slots == nil {
		lg.setSlots(1024)
	}
	h := hashKeyRow(keys, modes, r)
	p := h & lg.mask
	for {
		g := lg.slots[p]
		if g < 0 {
			g = int32(len(lg.groupRows))
			lg.groupRows = append(lg.groupRows, int32(r))
			lg.hashes = append(lg.hashes, h)
			lg.slots[p] = g
			if 2*len(lg.groupRows) > len(lg.slots) {
				lg.rehash()
			}
			return g
		}
		if keyRowsEqual(keys, r, keys, int(lg.groupRows[g]), modes) {
			return g
		}
		p = (p + 1) & lg.mask
	}
}

// rehash doubles the slot table, reseating every group by its stored hash.
func (lg *localGroups) rehash() {
	lg.setSlots(2 * len(lg.slots))
	for g, h := range lg.hashes {
		p := h & lg.mask
		for lg.slots[p] >= 0 {
			p = (p + 1) & lg.mask
		}
		lg.slots[p] = int32(g)
	}
}

// groupSrc identifies one worker-local group during the merge phase.
type groupSrc struct {
	row  int32 // the group's first row within its worker's morsels
	wid  int32
	lgid int32
}

// mergeLocalGroups folds the (non-nil) worker-local group tables into one
// global table. Sources are sorted by first row before insertion, so global
// group ids are assigned in true first-occurrence order — the GROUP BY /
// DISTINCT output order — and each global group's representative row is its
// earliest occurrence. Returns the global table, the sorted sources (the
// deterministic fold order for accumulator merging), and the per-table
// localGid -> globalGid remap. A single table already is the global one, in
// first-occurrence order: it comes back as is, with no sources and a nil
// (identity) remap.
func mergeLocalGroups(keyVecs []*Vec, modes []keyMode, tables []*localGroups) (*localGroups, []groupSrc, [][]int32) {
	switch len(tables) {
	case 0:
		return &localGroups{}, nil, nil
	case 1:
		return tables[0], nil, nil
	}
	total := 0
	for _, lg := range tables {
		total += len(lg.groupRows)
	}
	srcs := make([]groupSrc, 0, total)
	remap := make([][]int32, len(tables))
	for wid, lg := range tables {
		remap[wid] = make([]int32, len(lg.groupRows))
		for lgid, row := range lg.groupRows {
			srcs = append(srcs, groupSrc{row: row, wid: int32(wid), lgid: int32(lgid)})
		}
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].row < srcs[j].row })
	glob := &localGroups{}
	for _, s := range srcs {
		remap[s.wid][s.lgid] = glob.gidFor(keyVecs, modes, int(s.row))
	}
	return glob, srcs, remap
}

// parallelGroupRows computes the first-occurrence rows of every distinct key
// combination (the DISTINCT core): w workers build their own tables over the
// morsels they pull, then the tables merge in first-occurrence order.
func (ex *executor) parallelGroupRows(keyVecs []*Vec, nRows, w int) ([]int32, error) {
	modes := vecKeyModes(keyVecs)
	tables := make([]*localGroups, w)
	err := ex.runMorsels(nRows, w, func(wid, m, lo, hi int) error {
		lg := tables[wid]
		if lg == nil {
			lg = &localGroups{}
			tables[wid] = lg
		}
		for r := lo; r < hi; r++ {
			lg.gidFor(keyVecs, modes, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tables = slices.DeleteFunc(tables, func(lg *localGroups) bool { return lg == nil })
	glob, _, _ := mergeLocalGroups(keyVecs, modes, tables)
	return glob.groupRows, nil
}

// mergeMinMax folds one local group's min/max into the global accumulator,
// under accumulateRange's comparison rules per type.
func mergeMinMax(ga *aggAcc, g int, la *aggAcc, lgid int, isMin bool, t ColType) {
	switch t {
	case TypeInt:
		v := la.minI[lgid]
		if !ga.seen[g] || (isMin && v < ga.minI[g]) || (!isMin && v > ga.minI[g]) {
			ga.minI[g] = v
		}
	case TypeFloat:
		v := la.minF[lgid]
		if !ga.seen[g] || (isMin && v < ga.minF[g]) || (!isMin && v > ga.minF[g]) {
			ga.minF[g] = v
		}
	case TypeString:
		v := la.minS[lgid]
		if !ga.seen[g] || (isMin && v < ga.minS[g]) || (!isMin && v > ga.minS[g]) {
			ga.minS[g] = v
		}
	case TypeBool:
		v := la.minB[lgid]
		if !ga.seen[g] || (isMin && ga.minB[g] && !v) || (!isMin && !ga.minB[g] && v) {
			ga.minB[g] = v
		}
	}
	ga.seen[g] = true
}

// mergeDistinct unions the workers' per-group distinct value sets under the
// global group ids and recomputes the aggregate from the deduplicated
// values. A nil remap is the identity (one worker).
//
// Where the fold order can change the answer — the rounding of a sum, or a
// NaN meeting a float min/max — each group's values fold in ascending key
// order (a float by its bit pattern read as an int64), so the result is the
// same at every worker count. Those aggregates never read a string, so the
// values counting-sort by group into one flat array of keys, each group's
// segment sorts, and a value two workers both saw is the adjacent duplicate.
// Every other fold takes the values as the sets hand them out.
func mergeDistinct(ga *aggAcc, spec opt.AggSpec, t ColType, G int, states []*workerAgg, remap [][]int32, ai int) error {
	isMin := spec.Func == "min"
	each := func(visit func(g int, k distinctKey) error) error {
		for wid, st := range states {
			for k := range st.accs[ai].distinct {
				if remap != nil {
					k.g = remap[wid][k.g]
				}
				if err := visit(int(k.g), k); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if !(spec.Func == "sum" || spec.Func == "avg" || ((isMin || spec.Func == "max") && t == TypeFloat)) {
		var seen map[distinctKey]bool
		if remap != nil {
			seen = make(map[distinctKey]bool)
		}
		return each(func(g int, k distinctKey) error {
			if seen != nil {
				if seen[k] {
					return nil
				}
				seen[k] = true
			}
			return foldDistinctKey(ga, spec, t, g, k, isMin)
		})
	}
	start := make([]int, G+1)
	_ = each(func(g int, _ distinctKey) error { start[g+1]++; return nil })
	for g := 0; g < G; g++ {
		start[g+1] += start[g]
	}
	flat := make([]int64, start[G])
	fill := slices.Clone(start[:G])
	_ = each(func(g int, k distinctKey) error { flat[fill[g]] = k.i; fill[g]++; return nil })
	for g := 0; g < G; g++ {
		seg := flat[start[g]:start[g+1]]
		slices.Sort(seg)
		for j, v := range seg {
			if j > 0 && v == seg[j-1] {
				continue
			}
			if err := foldDistinctKey(ga, spec, t, g, distinctKey{i: v}, isMin); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldDistinctKey applies one deduplicated value to a global accumulator.
// The typed value is recovered from the distinct key (floats store their
// normalized bit pattern, so +0/-0 and NaNs round-trip canonically).
func foldDistinctKey(ga *aggAcc, spec opt.AggSpec, t ColType, g int, k distinctKey, isMin bool) error {
	switch spec.Func {
	case "count":
		ga.count[g]++
	case "sum", "avg":
		var v float64
		switch t {
		case TypeInt:
			v = float64(k.i)
		case TypeFloat:
			v = math.Float64frombits(uint64(k.i))
		case TypeBool:
			if k.i != 0 {
				v = 1
			}
		default:
			return fmt.Errorf("engine: %s over %s", spec.Func, t)
		}
		ga.count[g]++
		ga.sum[g] += v
	case "min", "max":
		ga.count[g]++
		switch t {
		case TypeInt:
			v := k.i
			if !ga.seen[g] || (isMin && v < ga.minI[g]) || (!isMin && v > ga.minI[g]) {
				ga.minI[g] = v
			}
		case TypeFloat:
			v := math.Float64frombits(uint64(k.i))
			if !ga.seen[g] || (isMin && v < ga.minF[g]) || (!isMin && v > ga.minF[g]) {
				ga.minF[g] = v
			}
		case TypeString:
			v := k.s
			if !ga.seen[g] || (isMin && v < ga.minS[g]) || (!isMin && v > ga.minS[g]) {
				ga.minS[g] = v
			}
		case TypeBool:
			v := k.i != 0
			if !ga.seen[g] || (isMin && ga.minB[g] && !v) || (!isMin && !ga.minB[g] && v) {
				ga.minB[g] = v
			}
		}
		ga.seen[g] = true
	default:
		ga.count[g]++
	}
	return nil
}

// buildJoinIndex builds the hash-join build side at ex.workers(n) workers:
// key hashes are computed over morsels, rows are radix-partitioned by their
// high hash bits (two partitions per worker, so one hot partition cannot
// serialize the build; one partition at one worker), and the partitions'
// tables build as independent tasks.
func (ex *executor) buildJoinIndex(keys []*Vec, n int, modes []keyMode) (*partedJoinTable, error) {
	w := ex.workers(n)
	hashes := make([]uint64, n)
	if err := ex.runMorsels(n, w, func(wid, m, lo, hi int) error {
		for r := lo; r < hi; r++ {
			hashes[r] = hashKeyRow(keys, modes, r)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	P, logP := 1, 0
	for w > 1 && P < 2*w && P < 256 {
		P <<= 1
		logP++
	}
	shift := uint(64 - logP) // 64 at one partition: every hash>>shift is 0
	// Radix scatter: per-morsel partition histograms, a small
	// serial prefix-sum over (morsel × partition), then each morsel writes
	// its rows into disjoint slots of one flat array — no serial O(n) pass.
	// Within a partition, morsel-major order keeps rows ascending, which
	// the chain build below relies on.
	nm := morselCount(n)
	counts := make([][]int32, nm)
	if err := ex.runMorsels(n, w, func(wid, m, lo, hi int) error {
		c := make([]int32, P)
		for r := lo; r < hi; r++ {
			c[hashes[r]>>shift]++
		}
		counts[m] = c
		return nil
	}); err != nil {
		return nil, err
	}
	starts := make([]int32, P+1) // partition start offsets in the flat array
	for p := 0; p < P; p++ {
		total := starts[p]
		for m := 0; m < nm; m++ {
			c := counts[m][p]
			counts[m][p] = total // becomes morsel m's write cursor for p
			total += c
		}
		starts[p+1] = total
	}
	flat := make([]int32, n)
	if err := ex.runMorsels(n, w, func(wid, m, lo, hi int) error {
		cur := counts[m]
		for r := lo; r < hi; r++ {
			p := hashes[r] >> shift
			flat[cur[p]] = int32(r)
			cur[p]++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	pt := &partedJoinTable{keys: keys, modes: modes, parts: make([]joinPart, P), next: make([]int32, n), shift: shift}
	if err := ex.runTasks(P, w, func(wid, p int) error {
		pt.parts[p] = buildJoinPart(flat[starts[p]:starts[p+1]], hashes, pt.next)
		return nil
	}); err != nil {
		return nil, err
	}
	return pt, nil
}

// mergeRuns merges two sorted runs; equal keys take the left (earlier-input)
// run first, preserving stability. The context is polled at batch
// granularity.
func (ex *executor) mergeRuns(a, b []int32, keyVecs []*Vec, keys []opt.SortKey) ([]int32, error) {
	out := make([]int32, 0, len(a)+len(b))
	i, j, sinceCheck := 0, 0, 0
	for i < len(a) && j < len(b) {
		sinceCheck++
		if sinceCheck >= cancelBatchRows {
			sinceCheck = 0
			if err := ex.checkCtx(); err != nil {
				return nil, err
			}
		}
		if lessRows(keyVecs, keys, int(b[j]), int(a[i])) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, nil
}
