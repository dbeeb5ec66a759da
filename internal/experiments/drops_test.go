package experiments

import (
	"errors"
	"testing"

	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/workload"
)

// dropRecorder wraps a registered scheduler and keeps every error its
// Schedule returns.
type dropRecorder struct {
	sched.Scheduler
	errs *[]error
}

func (d dropRecorder) Schedule(vm workload.VM) (*sched.Assignment, error) {
	a, err := d.Scheduler.Schedule(vm)
	if err != nil {
		*d.errs = append(*d.errs, err)
	}
	return a, err
}

// recordedDrops collects the drops of the droptest/<alg> schedulers.
var recordedDrops = map[string]*[]error{}

func init() {
	for _, alg := range Algorithms {
		errs := new([]error)
		recordedDrops[alg] = errs
		sched.Register("droptest/"+alg, func(st *sched.State, opts sched.Options) sched.Scheduler {
			inner, err := sched.New(alg, st, opts)
			if err != nil {
				panic(err)
			}
			return dropRecorder{Scheduler: inner, errs: errs}
		})
	}
}

// TestChurnGatedDropsAreTyped runs every scheduler on the churn benchmark's
// gated cell (96 racks, 4 uplinks per box, 200 % load), where 40–62 % of
// the decisions are drops, compute and network ones, and requires every
// drop to match exactly one of sched.DropReasons under errors.Is.
func TestChurnGatedDropsAreTyped(t *testing.T) {
	setup := DefaultSetup()
	setup.Topology.Racks = 96
	setup.Network.BoxUplinks = 4
	cfg := sim.StreamConfig{
		Workload: sim.StreamWorkload{MaxArrivals: 30000},
		Windows:  sim.StreamWindows{Warmup: 12600, Window: 6300},
	}
	reasons := sched.DropReasons()
	for _, alg := range Algorithms {
		errs := recordedDrops[alg]
		*errs = (*errs)[:0]
		res, err := setup.RunChurnCell("droptest/"+alg, ChurnRung{Label: "200%", Target: 2.0}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(*errs) == 0 {
			t.Fatalf("%s: no drops at 200 %% load (%d accepted)", alg, res.TotalAccepted)
		}
		seen := map[error]int{}
		for _, err := range *errs {
			var match error
			for _, r := range reasons {
				if errors.Is(err, r) {
					if match != nil {
						t.Fatalf("%s: drop %q matches both %q and %q", alg, err, match, r)
					}
					match = r
				}
			}
			if match == nil {
				t.Fatalf("%s: drop %q (%T) matches no typed reason", alg, err, err)
			}
			seen[match]++
		}
		t.Logf("%s: %d drops by reason %v", alg, len(*errs), seen)
	}
}
