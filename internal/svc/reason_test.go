package svc

import (
	"testing"

	"risa/internal/units"
	"risa/internal/workload"
)

// TestRejectReasonGolden pins the reject Reason text svc records for the
// two compute drops a client sees most: RISA's empty SUPER_RACK and
// NULB's first-phase "no box". The schedulers return preallocated typed
// reasons; the text is rendered from the reason and the request, and must
// read exactly as the per-drop messages did before.
func TestRejectReasonGolden(t *testing.T) {
	e, err := Open(t.TempDir(), testConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	huge := units.Amount(1 << 20)
	cases := []struct {
		algo string
		vm   workload.VM
		want string
	}{
		{"RISA", workload.VM{ID: 7, Arrival: 1, Lifetime: 5, Req: units.Vec(huge, 16, 128)},
			"core: VM 7: SUPER_RACK empty for CPU (need 1048576 cores)"},
		{"RISA", workload.VM{ID: 8, Arrival: 2, Lifetime: 5, Req: units.Vec(8, 16, huge)},
			"core: VM 8: SUPER_RACK empty for STO (need 1048576 GB)"},
		{"NULB", workload.VM{ID: 9, Arrival: 3, Lifetime: 5, Req: units.Vec(8, huge, 128)},
			"baseline: VM 9: no box with 1048576 GB free"},
		{"NULB", workload.VM{ID: 10, Arrival: 4, Lifetime: 5, Req: units.Vec(huge, 16, 128)},
			"baseline: VM 10: no box with 1048576 cores free"},
	}
	for _, c := range cases {
		if e.Algo() != c.algo {
			if err := e.Swap(c.algo); err != nil {
				t.Fatal(err)
			}
		}
		out, err := e.Place(c.vm)
		if err != nil {
			t.Fatal(err)
		}
		if out.Accepted || out.Reason != c.want {
			t.Fatalf("%s VM %d: accepted=%v reason %q, want %q", c.algo, c.vm.ID, out.Accepted, out.Reason, c.want)
		}
	}
}
