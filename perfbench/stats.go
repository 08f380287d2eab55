package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at. The steps
// are a decade apart so that a run whose sample count drifts a little still
// lands on the same percentile as its neighbours.
var tailLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// nearestRank returns the nearest-rank position (1-based) of percentile p
// among n samples. The tolerance keeps float rounding in p/100*n (99.9% of
// 10000 is 9990.000000000002) from moving the rank up by one.
func nearestRank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[nearestRank(p, len(s))-1]
}

// median returns the 50th percentile of xs by nearest rank, averaging the
// two middle samples of an even-sized set.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a tail latency together with the percentile it was read at and
// the sample count behind it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailOf applies the tail rule: the highest ladder percentile, at most
// capPct, that has at least minBeyond samples beyond it. When even the
// median has fewer, the maximum is reported at percentile 100 with nothing
// beyond it. The cap is what the rule gives at the workload's designed run
// length; it keeps a run whose sample count drifts across a ladder step
// comparable with its neighbours.
func tailOf(xs []float64, capPct float64) tail {
	n := len(xs)
	t := tail{Samples: n, Percentile: 100}
	if n == 0 {
		return t
	}
	s := sortedCopy(xs)
	t.Value = s[n-1]
	for _, p := range tailLadder {
		k := nearestRank(p, n)
		if p > capPct || n-k < minBeyond {
			break
		}
		t.Value, t.Percentile, t.Beyond = s[k-1], p, n-k
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
