package topology

import (
	"math/rand"
	"testing"

	"risa/internal/units"
)

// treeShapes are rack counts at the candidate tree's padding boundaries:
// a lone leaf, a partial and a full leaf group and one past it, a full
// and an overfull second level, the paper-scale churn cell, and a full
// and an overfull third level.
var treeShapes = []int{1, 7, 8, 9, 63, 64, 65, 96, 511, 512, 513}

// TestMaxTreeFirstAtLeastMatchesScan is the differential test of the
// candidate tree's query: after random set/raise sequences, firstAtLeast
// must return what a left-to-right scan of the leaves returns, for every
// start index (including out-of-range ones) and for needs below, at and
// above the stored bounds.
func TestMaxTreeFirstAtLeastMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range treeShapes {
		tree := newMaxTree(n)
		leaves := make([]units.Amount, n)
		for i := range leaves {
			leaves[i] = unusedLeaf
		}
		for round := 0; round < 12; round++ {
			// Mutations: mostly sparse (few qualifying racks, long
			// climbs), some dense, some exact sets that lower a bound.
			for op := 0; op < 1+rng.Intn(3*n); op++ {
				i := rng.Intn(n)
				v := units.Amount(rng.Intn(64))
				if rng.Intn(4) == 0 {
					v = units.Amount(rng.Intn(512))
				}
				if rng.Intn(2) == 0 {
					tree.set(i, v)
					leaves[i] = v
				} else {
					tree.raise(i, v)
					if v > leaves[i] {
						leaves[i] = v
					}
				}
			}
			if err := tree.checkTree(); err != nil {
				t.Fatalf("n=%d round %d: %v", n, round, err)
			}
			for _, need := range []units.Amount{0, 1, 32, 63, 64, 200, 511, 512} {
				// want[i] is the first leaf ≥ i with a bound ≥ need.
				want := make([]int, n+1)
				want[n] = -1
				for i := n - 1; i >= 0; i-- {
					want[i] = want[i+1]
					if leaves[i] >= need {
						want[i] = i
					}
				}
				for from := -2; from <= n+1; from++ {
					w := -1
					switch {
					case from < 0:
						w = want[0]
					case from <= n:
						w = want[from]
					}
					if got := tree.firstAtLeast(from, need); got != w {
						t.Fatalf("n=%d round %d: firstAtLeast(%d, %d) = %d, scan %d",
							n, round, from, need, got, w)
					}
				}
			}
		}
	}
}
