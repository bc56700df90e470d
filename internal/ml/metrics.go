package ml

import (
	"fmt"
	"math"
	"sort"
)

// MSE returns the mean squared error between predictions and targets.
func MSE(pred, y []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i, p := range pred {
		d := p - y[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// RMSE returns the root mean squared error.
func RMSE(pred, y []float64) float64 { return math.Sqrt(MSE(pred, y)) }

// Accuracy returns the fraction of predictions whose 0.5-thresholded class
// matches the binary target.
func Accuracy(pred, y []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	var hits int
	for i, p := range pred {
		c := 0.0
		if p >= 0.5 {
			c = 1
		}
		if c == y[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}

// rocAUC returns the area under the ROC curve for probability scores against
// binary targets, computed via the rank statistic (ties get midranks).
func rocAUC(pred, y []float64) (float64, error) {
	if len(pred) != len(y) {
		return 0, fmt.Errorf("ml: AUC: %d predictions but %d targets", len(pred), len(y))
	}
	type pair struct {
		score float64
		label float64
	}
	ps := make([]pair, len(pred))
	var pos, neg int
	for i := range pred {
		ps[i] = pair{pred[i], y[i]}
		if y[i] == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("ml: AUC: need both classes (pos=%d neg=%d)", pos, neg)
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].score < ps[b].score })
	// Sum of ranks of positives, with midranks for ties.
	var rankSum float64
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].score == ps[i].score {
			j++
		}
		midrank := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			if ps[k].label == 1 {
				rankSum += midrank
			}
		}
		i = j
	}
	np, nn := float64(pos), float64(neg)
	return (rankSum - np*(np+1)/2) / (np * nn), nil
}

// trainTestSplit partitions indices [0, n) into train and test sets using a
// deterministic multiplicative hash so results are reproducible.
func trainTestSplit(n int, testFrac float64, seed uint64) (train, test []int) {
	for i := 0; i < n; i++ {
		h := splitmix(seed + uint64(i))
		if float64(h%10000)/10000.0 < testFrac {
			test = append(test, i)
		} else {
			train = append(train, i)
		}
	}
	return train, test
}

// splitmix is the SplitMix64 hash step; used anywhere the library needs
// cheap deterministic pseudo-randomness.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a tiny deterministic PRNG (SplitMix64) for the library's synthetic
// data generators; stdlib math/rand would also do, but a local generator
// keeps generated corpora stable across Go versions.
type Rand struct{ state uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next pseudo-random value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("ml: Rand.Intn: n must be positive")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns an approximately standard-normal value via the sum of
// uniforms (Irwin–Hall with 12 terms).
func (r *Rand) NormFloat64() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}
