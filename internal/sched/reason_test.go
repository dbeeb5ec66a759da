package sched

import (
	"errors"
	"fmt"
	"testing"

	"risa/internal/network"
	"risa/internal/units"
	"risa/internal/workload"
)

// TestDropReasonsAreDistinct checks that every listed reason matches
// itself and no other under errors.Is (also when wrapped), and that no two
// share a description.
func TestDropReasonsAreDistinct(t *testing.T) {
	reasons := DropReasons()
	texts := map[string]bool{}
	for i, r := range reasons {
		if texts[r.Error()] {
			t.Fatalf("duplicate reason text %q", r.Error())
		}
		texts[r.Error()] = true
		wrapped := fmt.Errorf("context: %w", r)
		for j, o := range reasons {
			if got := errors.Is(wrapped, o); got != (i == j) {
				t.Fatalf("errors.Is(%q, %q) = %v", wrapped, o, got)
			}
		}
	}
}

// TestRenderDrop pins the rendered messages, including the fallback to
// the error's own text for the network sentinels.
func TestRenderDrop(t *testing.T) {
	vm := workload.VM{ID: 42, Req: units.Vec(8, 16, 128)}
	for _, c := range []struct {
		err  error
		want string
	}{
		{ErrUnusable, "core: VM 42 has unusable request cpu=8cores ram=16GB sto=128GB"},
		{ErrNothingRequested, "baseline: VM 42 requests nothing"},
		{ErrSuperRackEmpty[units.RAM], "core: VM 42: SUPER_RACK empty for RAM (need 16 GB)"},
		{ErrNoBox[units.CPU], "baseline: VM 42: no box with 8 cores free"},
		{ErrNoBoxReachable[units.Storage], "baseline: VM 42: no box with 128 GB free reachable from the home rack"},
		{ErrConclusiveDrop, ErrConclusiveDrop.Error()},
		{network.ErrNoRackUplink, network.ErrNoRackUplink.Error()},
	} {
		if got := RenderDrop(c.err, vm); got != c.want {
			t.Errorf("RenderDrop(%q) = %q, want %q", c.err, got, c.want)
		}
	}
}
