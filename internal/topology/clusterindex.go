package topology

import (
	"fmt"

	"risa/internal/units"
)

// maxTree is a flat max-tree over rack indices. For one resource kind it
// stores, per rack, an UPPER BOUND on that rack's cached MaxFree;
// internal nodes hold the maximum of their children. It answers the
// cluster-level candidate query every scheduler's rack scan reduces to —
// "smallest rack index ≥ from whose best box could hold `need`" — in
// O(log racks) per candidate instead of a linear sweep over all racks.
//
// Layout: an 8-ary tree stored level by level, leaves in levels[0], each
// internal node covering a contiguous group of 8 children. Eight 8-byte
// amounts are exactly one 64-byte cache line, so every step of a query
// reads one line of siblings instead of the two scattered probes per level
// a binary heap costs; at 16k racks the tree has 5 levels instead of 14.
// Every level is padded to a multiple of 8 with unusedLeaf (strictly
// below any legal bound) so child groups are always full; building stops
// once a level fits in one group. Queries climb from the leaf they start
// at (see firstAtLeast), so a nearby candidate never touches the upper
// levels. The query/update semantics are identical to the binary
// segment-tree this layout replaced — same candidates in the same order —
// so placements cannot change.
//
// The bound is deliberately lazy, mirroring the rack-level kindIndex:
// decreases (allocate, fail) can only lower a rack's true maximum, so the
// stale value already stored is a valid upper bound and the tree is not
// touched at all. Increases (release, restore) raise the bound — exactly
// when the rack's own index is clean, conservatively by the grown box's
// free amount when it is dirty. Queries self-repair: a candidate leaf is
// verified against the rack's true MaxFree (which may trigger the rack's
// own O(boxes) rescan) and tightened to it, charging the repair to the
// mutation that staled it. The tree therefore never claims a qualifying
// rack does not exist, and never yields a rack without verifying it.
type maxTree struct {
	n      int              // number of racks (leaves in use)
	levels [][]units.Amount // levels[0] = leaves; each padded to a multiple of fanout
}

// fanout is the tree arity: 8 children × 8-byte amounts = one 64-byte
// cache line per child group.
const fanout = 8

// unusedLeaf marks padding slots past the last real element of a level;
// it is below every legal bound (free amounts are ≥ 0) so padding never
// qualifies.
const unusedLeaf = units.Amount(-1)

// padded returns n rounded up to a multiple of fanout.
func padded(n int) int { return (n + fanout - 1) / fanout * fanout }

// newMaxTree returns a tree for n racks with every bound set to
// unusedLeaf; callers seed real leaves with set.
func newMaxTree(n int) maxTree {
	t := maxTree{n: n}
	for w := padded(n); ; w = padded(w / fanout) {
		level := make([]units.Amount, w)
		for i := range level {
			level[i] = unusedLeaf
		}
		t.levels = append(t.levels, level)
		if w <= fanout {
			return t
		}
	}
}

// leaf returns rack i's current bound.
func (t *maxTree) leaf(i int) units.Amount { return t.levels[0][i] }

// set stores rack i's bound exactly and fixes the ancestor maxima,
// stopping at the first ancestor whose stored maximum is already right.
func (t *maxTree) set(i int, v units.Amount) {
	if t.levels[0][i] == v {
		return
	}
	t.levels[0][i] = v
	for j := 0; j+1 < len(t.levels); j++ {
		g := i / fanout
		m := unusedLeaf
		for _, c := range t.levels[j][g*fanout : g*fanout+fanout] {
			if c > m {
				m = c
			}
		}
		if t.levels[j+1][g] == m {
			return
		}
		t.levels[j+1][g] = m
		i = g
	}
}

// raise lifts rack i's bound to at least v.
func (t *maxTree) raise(i int, v units.Amount) {
	if v > t.levels[0][i] {
		t.set(i, v)
	}
}

// firstAtLeast returns the smallest rack index ≥ from whose bound is ≥
// need, or -1. Candidates still need verification against the rack's true
// MaxFree — see Cluster.NextRackWith.
//
// The search is iterative and starts at from's leaf, not at the root: it
// scans the rest of from's 64-byte leaf group, climbs one level only when
// that group is exhausted (continuing at the parent's right sibling, which
// covers the leaves right after the group), and on the first element whose
// maximum qualifies descends one child group per level, taking the
// leftmost qualifying child each time. A candidate a few racks past from —
// the common case on a loaded cluster — costs one or two cache lines, and
// the worst case is one line up and one line down per level. Every element
// examined at level j > 0 covers only leaves after from's own subtree, and
// an internal node's maximum qualifies exactly when one of its children
// does, so the descent always succeeds and the answer is the leftmost
// qualifying leaf, the one a left-to-right leaf scan would find.
func (t *maxTree) firstAtLeast(from int, need units.Amount) int {
	if from < 0 {
		from = 0
	}
	if from >= t.n {
		return -1
	}
	i, j := from, 0
	for {
		level := t.levels[j]
		if i >= len(level) {
			return -1 // nothing to the right of from's subtree at this level
		}
		end := i | (fanout - 1)
		for ; i <= end; i++ {
			if level[i] >= need {
				return t.descend(j, i, need)
			}
		}
		if j+1 == len(t.levels) {
			return -1
		}
		i, j = i/fanout, j+1 // i is one past the group: the parent's right sibling
	}
}

// descend returns the leftmost leaf under element i of level j whose bound
// is ≥ need; the element's own bound must be ≥ need.
func (t *maxTree) descend(j, i int, need units.Amount) int {
	for ; j > 0; j-- {
		children := t.levels[j-1][i*fanout : i*fanout+fanout]
		c := 0
		for children[c] < need {
			c++
		}
		i = i*fanout + c
	}
	return i
}

// checkTree verifies the tree's structural invariants for tests: every
// internal node equals the maximum of its child group, and every padding
// slot still holds unusedLeaf.
func (t *maxTree) checkTree() error {
	for j := 0; j+1 < len(t.levels); j++ {
		lower, upper := t.levels[j], t.levels[j+1]
		for g := 0; g < len(lower)/fanout; g++ {
			m := unusedLeaf
			for _, c := range lower[g*fanout : g*fanout+fanout] {
				if c > m {
					m = c
				}
			}
			if upper[g] != m {
				return fmt.Errorf("level %d node %d = %d, children max %d", j+1, g, upper[g], m)
			}
		}
		for g := len(lower) / fanout; g < len(upper); g++ {
			if upper[g] != unusedLeaf {
				return fmt.Errorf("level %d padding node %d = %d", j+1, g, upper[g])
			}
		}
	}
	for i := t.n; i < len(t.levels[0]); i++ {
		if t.levels[0][i] != unusedLeaf {
			return fmt.Errorf("padding leaf %d = %d", i, t.levels[0][i])
		}
	}
	return nil
}

// initCandidateIndex seeds the per-kind trees from the freshly built
// racks' (clean, exact) kind indexes.
func (c *Cluster) initCandidateIndex() {
	for _, k := range units.Resources() {
		c.cidx[k] = newMaxTree(len(c.racks))
		for i, rack := range c.racks {
			c.cidx[k].set(i, rack.idx[k].max)
		}
	}
}

// noteRackIncrease propagates a box's grown free amount into both the
// rack-level index and the cluster-level candidate tree. When the rack's
// index is clean its maximum is exact and the tree bound is tightened to
// it; when dirty, the true maximum is unknown but can only have grown to
// the raised box's free amount, so the bound is lifted to cover it.
// Decreases need no counterpart: a shrinking maximum leaves the stored
// bound a valid upper bound, and the next query tightens it lazily.
func (c *Cluster) noteRackIncrease(b *Box, delta units.Amount) {
	rack := c.racks[b.rack]
	rack.noteIncrease(b, delta)
	ix := &rack.idx[b.kind]
	if ix.dirty {
		c.cidx[b.kind].raise(b.rack, b.Free())
	} else {
		c.cidx[b.kind].set(b.rack, ix.max)
	}
}

// NextRackWith returns the smallest rack index ≥ from whose MaxFree(k) is
// at least need, or -1 when no such rack exists. It is the cluster-level
// candidate query behind RISA's SUPER_RACK and NULB/NALB's rack scans:
// candidates come from the per-kind tree in ascending rack order — the
// exact order the pre-index linear sweeps used — and every candidate is
// verified against (and the tree tightened to) the rack's true maximum, so
// the answer is identical to scanning all racks. Amortized cost is
// O(log racks) per returned rack.
func (c *Cluster) NextRackWith(k units.Resource, need units.Amount, from int) int {
	t := &c.cidx[k]
	// Fast path: when candidates are dense (lightly loaded clusters, small
	// needs) the very next rack usually qualifies; one leaf probe then
	// costs what one iteration of the pre-index linear scan did, and the
	// logarithmic descent is reserved for skipping sparse regions.
	if from >= 0 && from < t.n && t.leaf(from) >= need {
		max, _ := c.racks[from].MaxFree(k)
		if max >= need {
			return from
		}
		t.set(from, max)
		from++
	}
	for {
		i := t.firstAtLeast(from, need)
		if i < 0 {
			return -1
		}
		max, _ := c.racks[i].MaxFree(k)
		if max != t.leaf(i) {
			t.set(i, max)
		}
		if max >= need {
			return i
		}
		from = i + 1
	}
}

// NextRackFits returns the smallest rack index ≥ from that FitsWholeVM(req)
// — the cluster-level form of RISA's INTRA_RACK_POOL test — or -1. It
// leapfrogs the per-kind candidate sequences: the current candidate is
// advanced to each requested kind's next qualifying rack until one pass
// leaves it unmoved, at which point every kind qualifies. Resources with a
// zero request never constrain, matching FitsWholeVM.
func (c *Cluster) NextRackFits(req units.Vector, from int) int {
	i := from
	if i < 0 {
		i = 0
	}
	for i < len(c.racks) {
		advanced := false
		for _, k := range units.Resources() {
			if req[k] == 0 {
				continue
			}
			j := c.NextRackWith(k, req[k], i)
			if j < 0 {
				return -1
			}
			if j > i {
				i = j
				advanced = true
			}
		}
		if !advanced {
			return i
		}
	}
	return -1
}
