package sched

import (
	"errors"
	"fmt"

	"risa/internal/network"
	"risa/internal/units"
	"risa/internal/workload"
)

// dropCause names why a scheduler rejected a VM.
type dropCause uint8

const (
	unusable         dropCause = iota + 1 // RISA got a negative or all-zero request
	nothingRequested                      // NULB/NALB found no requested resource to anchor on
	superRackEmpty                        // no rack's best box could hold the component
	noBox                                 // no box anywhere holds the scarcest resource
	noBoxReachable                        // the BFS from the scarce box found no box for another resource
	conclusive                            // an agent-mode round proved both RISA tiers exhausted
)

// DropReason is a typed scheduling rejection. Every reason × resource is
// one preallocated value (the Err* variables below), so a drop allocates
// nothing and a returned reason is never overwritten by a later decision
// — a caller may keep it, as Driver.PlaceBatch's per-VM results do.
// Match a reason with errors.Is against its variable.
//
// The value carries no VM, so Error is a static description; RenderDrop
// formats the full message from the reason and the dropped VM.
type DropReason struct {
	cause dropCause
	res   units.Resource
	text  string
}

// Error implements error with a static description of the reason.
func (r *DropReason) Error() string { return r.text }

// RenderDrop returns the message for vm's rejection err: for a
// DropReason the reason formatted with the VM's id and request, else
// err's own text (the network tiers' sentinels carry no VM-specific
// detail). It runs off the decision path, where formatting may allocate.
func RenderDrop(err error, vm workload.VM) string {
	var r *DropReason
	if !errors.As(err, &r) {
		return err.Error()
	}
	switch r.cause {
	case unusable:
		return fmt.Sprintf("core: VM %d has unusable request %v", vm.ID, vm.Req)
	case nothingRequested:
		return fmt.Sprintf("baseline: VM %d requests nothing", vm.ID)
	case superRackEmpty:
		return fmt.Sprintf("core: VM %d: SUPER_RACK empty for %v (need %d %s)",
			vm.ID, r.res, vm.Req[r.res], r.res.Native())
	case noBox:
		return fmt.Sprintf("baseline: VM %d: no box with %d %s free", vm.ID, vm.Req[r.res], r.res.Native())
	case noBoxReachable:
		return fmt.Sprintf("baseline: VM %d: no box with %d %s free reachable from the home rack",
			vm.ID, vm.Req[r.res], r.res.Native())
	default:
		return r.text
	}
}

// The drop reasons. The per-resource arrays are indexed by units.Resource.
var (
	ErrUnusable         = &DropReason{cause: unusable, text: "core: unusable request"}
	ErrNothingRequested = &DropReason{cause: nothingRequested, text: "baseline: VM requests nothing"}
	ErrConclusiveDrop   = &DropReason{cause: conclusive,
		text: "core: no placement: intra-rack and SUPER_RACK tiers exhausted at propose time"}
	ErrSuperRackEmpty = perResource(superRackEmpty, "core: SUPER_RACK empty for %v")
	ErrNoBox          = perResource(noBox, "baseline: no %v box with enough free")
	ErrNoBoxReachable = perResource(noBoxReachable, "baseline: no %v box with enough free reachable from the home rack")
)

// perResource builds one reason per resource, its text formatted with the
// resource name.
func perResource(c dropCause, format string) (out [units.NumResources]*DropReason) {
	for _, res := range units.Resources() {
		out[res] = &DropReason{cause: c, res: res, text: fmt.Sprintf(format, res)}
	}
	return out
}

// DropReasons lists every error a scheduler's Schedule returns for a VM
// it could not place: each DropReason value, then the network tiers'
// admission sentinels (a placement whose flows found no bandwidth).
func DropReasons() []error {
	out := []error{ErrUnusable, ErrNothingRequested, ErrConclusiveDrop}
	for _, arr := range [][units.NumResources]*DropReason{ErrSuperRackEmpty, ErrNoBox, ErrNoBoxReachable} {
		for _, r := range arr {
			out = append(out, r)
		}
	}
	return append(out, network.ErrNoBoxUplink, network.ErrNoRackUplink, network.ErrNoPodUplink)
}
