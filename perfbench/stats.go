package main

import (
	"math/rand"
	"sort"
)

// sampler keeps an exact count and sum of observations plus a bounded,
// seeded reservoir for percentiles, so a run's memory does not grow with
// the number of decisions it times.
type sampler struct {
	n, sum int64
	res    []int64
	cap    int
	rng    *rand.Rand
}

// newSampler allocates the whole reservoir up front, so adding to it
// never allocates inside a timed loop.
func newSampler(capacity int) *sampler {
	return &sampler{res: make([]int64, 0, capacity), cap: capacity, rng: rand.New(rand.NewSource(1))}
}

func (s *sampler) add(v int64) {
	s.n++
	s.sum += v
	if len(s.res) < s.cap {
		s.res = append(s.res, v)
		return
	}
	if j := s.rng.Int63n(s.n); j < int64(s.cap) {
		s.res[j] = v
	}
}

// mean returns the exact mean of every observation (0 when empty).
func (s *sampler) mean() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// quantile returns the q-quantile of the reservoir (0 when empty).
func (s *sampler) quantile(q float64) float64 {
	if s == nil || len(s.res) == 0 {
		return 0
	}
	return quantile(s.res, q)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; vs is sorted in place.
func quantile[T int64 | float64](vs []T, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return float64(vs[len(vs)-1])
	}
	frac := pos - float64(lo)
	return float64(vs[lo]) + frac*float64(vs[lo+1]-vs[lo])
}

// median returns the median of xs (0 when empty), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// fast returns the fast tenth of a run's timings: the 0.1-quantile of xs
// (0 when empty), leaving xs unchanged. On a shared host interference
// only ever adds time, and it comes in spells of seconds to minutes
// (README.md, "How the timings are summarized"), which leave a run's
// samples bimodal. Their median or mean moves with the spells' share of
// the run; the fast tenth moves only if a run has almost no fast spell.
// It is the low-quantile reading of Chen and Revels, "Robust
// benchmarking in noisy environments" (2016), kept off the minimum so
// that one odd sample does not set it.
func fast(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(append([]float64(nil), xs...), 0.1)
}

// mean returns the mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
