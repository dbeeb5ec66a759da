// Optimistic propose support (DESIGN.md §12): the read-only form of
// RISA's intra-rack placement, used by the concurrent agent pool. The
// serial Schedule path is untouched — Propose exists so N agents can
// compute claims in parallel against a settled cluster view.
package core

import (
	"risa/internal/baseline"
	"risa/internal/network"
	"risa/internal/sched"
	"risa/internal/units"
	"risa/internal/workload"
)

func init() {
	sched.Register("RISA", func(st *sched.State, _ sched.Options) sched.Scheduler { return New(st) })
	sched.Register("RISA-BF", func(st *sched.State, _ sched.Options) sched.Scheduler { return NewBF(st) })
}

// Compile-time check: the agent pool drives RISA through Propose and
// drops its conclusive failures through DropConclusive.
var _ sched.ConclusiveProposer = (*RISA)(nil)

// Propose implements sched.Proposer: the INTRA_RACK_POOL walk of
// Schedule with every mutation replaced by a read. Instead of
// probe-allocating a candidate rack it verifies the same conditions
// read-only — per-box fit through chooseBoxes and hop-by-hop flow
// feasibility through Fabric.FlowFeasible — and records the rack's
// generation counters for the commit-time check. The shard's racks are
// preferred; only when the shard is exhausted does the walk spill over
// to the remaining racks (see the walk comment below), and only when
// the whole cluster yields nothing does it try the SUPER_RACK tier
// read-only (proposeSuperRack). A false return therefore certifies
// that NO tier had a placement at the settle point — the property the
// agent loop's drop-without-redo path depends on
// (sched.ConclusiveProposer).
//
// The cluster's lazy index tiers must be settled (topology's
// Cluster.Settle) before concurrent Propose calls: NextRackFits and the
// per-rack queries are pure reads only then. The instance's own
// round-robin and next-fit cursors
// advance on a successful proposal, exactly as Schedule advances them —
// they are per-agent state, not shared.
func (r *RISA) Propose(vm workload.VM, shard sched.RackMask) (sched.Proposal, bool) {
	var p sched.Proposal
	if !vm.Req.NonNegative() || vm.Req.IsZero() {
		return p, false
	}
	cfg := r.st.Units()
	cl := r.st.Cluster
	fab := r.st.Fabric
	cpuram := cfg.CPURAMDemand(vm.Req)
	ramsto := cfg.RAMSTODemand(vm.Req)
	demand := cpuram + ramsto
	try := func(rackIdx int) bool {
		// AVAIL_INTRA_RACK_NET and INTRA_RACK_POOL, read-only.
		if fab.RackIntraFree(rackIdx) < demand {
			return false
		}
		boxes, ok := r.chooseBoxes(cl.Rack(rackIdx), vm.Req)
		if !ok {
			return false
		}
		if boxes[units.CPU] != nil && boxes[units.RAM] != nil &&
			!fab.FlowFeasible(boxes[units.CPU], boxes[units.RAM], cpuram, network.FirstFit) {
			return false
		}
		if boxes[units.RAM] != nil && boxes[units.Storage] != nil &&
			!fab.FlowFeasible(boxes[units.RAM], boxes[units.Storage], ramsto, network.FirstFit) {
			return false
		}
		p = sched.Proposal{VM: vm, Boxes: boxes, Policy: network.FirstFit}
		p.Claim(rackIdx, cl.RackGen(rackIdx), fab.RackGen(rackIdx))
		if !r.opts.DisableRoundRobin {
			r.cursor = (rackIdx + 1) % cl.NumRacks()
		}
		if r.opts.Packing == NextFit {
			cur := r.scratch.Cursors(rackIdx)
			for _, res := range units.Resources() {
				if boxes[res] != nil {
					cur[res] = boxes[res].KindIndex()
				}
			}
		}
		return true
	}
	// The same rotated candidate enumeration as scheduleIntra — the
	// cluster-level candidate tree is a pure read once settled, so the
	// propose walk skips non-fitting racks in O(log racks) exactly like
	// the serial path, and a clean commit reproduces the serial
	// placement box-for-box. The shard's span is walked first, rotated
	// at the agent's cursor: in-shard claims cannot collide across
	// agents, so this is the low-conflict fast path. Only when the shard
	// yields nothing does the walk spill over to the racks the mask
	// rejects, in ascending order — a spillover claim may lose its
	// commit to the rack's own agent, which the generation check
	// resolves. The spillover is what makes a false return conclusive:
	// every rack in the cluster was tried.
	lo, hi := shard.Span()
	if hi < 0 {
		lo, hi = 0, cl.NumRacks()
	}
	start := r.cursor
	if start < lo || start >= hi {
		start = lo
	}
	for i := cl.NextRackFits(vm.Req, start); i >= 0 && i < hi; i = cl.NextRackFits(vm.Req, i+1) {
		if shard.Allows(i) && try(i) {
			return p, true
		}
	}
	for i := cl.NextRackFits(vm.Req, lo); i >= 0 && i < start; i = cl.NextRackFits(vm.Req, i+1) {
		if shard.Allows(i) && try(i) {
			return p, true
		}
	}
	if shard != nil {
		for i := cl.NextRackFits(vm.Req, 0); i >= 0; i = cl.NextRackFits(vm.Req, i+1) {
			if !shard.Allows(i) && try(i) {
				return p, true
			}
		}
	}
	// Fallback tier, read-only: the exact choice ScheduleMasked would
	// take on the SUPER_RACK masks, feasibility-checked hop-by-hop and
	// claiming every rack it touches. Its failure makes the false return
	// conclusive for BOTH tiers (sched.ConclusiveProposer).
	return r.proposeSuperRack(vm)
}

// proposeSuperRack is the read-only form of scheduleSuperRack: the same
// SUPER_RACK emptiness check, the same NULB box choice (MaskedScheduler's
// ChooseMasked, unmasked — see scheduleSuperRack for why the explicit
// masks were redundant), but flows only feasibility-checked — the claim
// spans every distinct rack the chosen boxes live in, so the commit-time
// generation check covers each of them.
func (r *RISA) proposeSuperRack(vm workload.VM) (sched.Proposal, bool) {
	var p sched.Proposal
	cl := r.st.Cluster
	fab := r.st.Fabric
	for _, res := range units.Resources() {
		if vm.Req[res] == 0 {
			continue
		}
		if cl.NextRackWith(res, vm.Req[res], 0) < 0 {
			return p, false
		}
	}
	boxes, policy, err := r.fallback.ChooseMasked(vm, baseline.Masks{})
	if err != nil {
		return p, false
	}
	cfg := r.st.Units()
	if boxes[units.CPU] != nil && boxes[units.RAM] != nil &&
		!fab.FlowFeasible(boxes[units.CPU], boxes[units.RAM], cfg.CPURAMDemand(vm.Req), policy) {
		return p, false
	}
	if boxes[units.RAM] != nil && boxes[units.Storage] != nil &&
		!fab.FlowFeasible(boxes[units.RAM], boxes[units.Storage], cfg.RAMSTODemand(vm.Req), policy) {
		return p, false
	}
	p = sched.Proposal{VM: vm, Boxes: boxes, Policy: policy}
	for _, res := range units.Resources() {
		b := boxes[res]
		if b == nil {
			continue
		}
		claimed := false
		for _, c := range p.Claims[:p.NClaims] {
			if c.Rack == b.Rack() {
				claimed = true
				break
			}
		}
		if !claimed {
			p.Claim(b.Rack(), cl.RackGen(b.Rack()), fab.RackGen(b.Rack()))
		}
	}
	return p, true
}

// DropConclusive implements sched.ConclusiveProposer: bookkeeping for a
// VM whose cluster-wide, both-tier Propose failure proved it
// unplaceable this round. Counted in Stats.ConclusiveDrops (not
// PoolEmpty or NetGated — attributing those would take exactly the walk
// this path exists to skip).
func (r *RISA) DropConclusive(vm workload.VM) error {
	r.stats.ConclusiveDrops++
	r.stats.Dropped++
	return sched.ErrConclusiveDrop
}
