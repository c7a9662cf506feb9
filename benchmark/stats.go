package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics, 0 for no values. It sorts a copy.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// perCall times chunks × per calls of f and returns the median over the
// chunks of one call's share, in nanoseconds. Calls of well under a
// microsecond cannot be timed one by one: the clock would cost as much as
// the call.
func perCall(chunks, per int, f func(i int) error) (float64, error) {
	shares := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := f(c*per + i); err != nil {
				return 0, err
			}
		}
		shares = append(shares, float64(time.Since(t0))/float64(per))
	}
	return median(shares), nil
}
