package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is one percentile with the sample count it came from and the
// number of samples beyond it, so a reader can tell how much a tail value
// rests on.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

func (q quantile) String() string {
	return fmt.Sprintf("n=%d, %d beyond", q.N, q.Beyond)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples:
// the smallest sample with at least p of the samples at or below it.
func percentile(samples []float64, p float64) quantile {
	n := len(samples)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return quantile{Value: s[rank-1], N: n, Beyond: n - rank}
}

func median(samples []float64) float64 { return percentile(samples, 0.5).Value }

// tally counts the benchmark's operations and their failures. An operation
// is one request, one sweep or one check; every mismatch fails exactly one.
type tally struct {
	attempted, failed int
	failures          []string
}

// check records one operation; a non-nil err fails it.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < 20 {
			t.failures = append(t.failures, what+": "+err.Error())
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 20 {
			t.failures = append(t.failures, f)
		}
	}
}
