package bench

import (
	"math"
	"sort"
)

// Summary is one metric's distribution over the samples a run took: the
// median, the quartiles and the sample count.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// Summarize returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here matches one computed from the same values there.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := Summary{Median: median(s), N: len(s)}
	if len(s) == 1 {
		sum.Q1, sum.Q3 = s[0], s[0]
		return sum
	}
	q := quartiles(s)
	sum.Q1, sum.Q3 = q[0], q[2]
	return sum
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles is statistics.quantiles(sorted, n=4, method="exclusive").
func quartiles(sorted []float64) [3]float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
