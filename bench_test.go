// Benchmarks regenerating every table and figure of the paper's
// evaluation (mapping per DESIGN.md §5):
//
//	Tables 3/4 (toy examples)      → BenchmarkToyExample1, BenchmarkToyExample2
//	Figure 5 + Figure 11           → BenchmarkSynthetic/<alg>
//	Figure 6                       → BenchmarkAzureTraceGeneration
//	Figures 7, 8, 9, 10, 12        → BenchmarkAzure/<subset>/<alg>
//	Equation 1 / §3.2 energy model → BenchmarkEquation1, BenchmarkFlowPower
//	Scheduling hot path            → BenchmarkScheduleOne/<alg>
//	Ablations (DESIGN.md §6)       → BenchmarkAblation*
//
// Absolute times are this machine's, not the paper's AMD Ryzen 2700X
// testbed (Table 5); the orderings are what reproduce.
package risa

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"risa/internal/core"
	"risa/internal/experiments"
	"risa/internal/network"
	"risa/internal/optics"
	"risa/internal/power"
	"risa/internal/sched"
	"risa/internal/sim"
	"risa/internal/topology"
	"risa/internal/units"
	"risa/internal/workload"
)

// BenchmarkScheduleOne measures the per-VM scheduling decision on a
// half-loaded cluster — the hot path of Figures 11 and 12.
func BenchmarkScheduleOne(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			// Pre-load the cluster to a realistic operating point.
			for i := 0; i < 500; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
				if _, err := sch.Schedule(vm); err != nil {
					b.Fatal(err)
				}
			}
			vm := workload.VM{ID: 10_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := sch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				sch.Release(a)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkScheduleOneAllocs asserts the zero-allocation contract of the
// steady-state decision path: after the pools and scratch buffers have
// warmed up, one Schedule+Release round trip performs zero heap
// allocations under every algorithm. Unlike a plain -benchmem report it
// FAILS when the contract breaks (testing.AllocsPerRun), which makes it
// the enforcement point behind scripts/ci/allocguard.sh: any change that
// re-introduces a per-decision allocation turns CI red instead of quietly
// regressing the churn throughput.
func BenchmarkScheduleOneAllocs(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
				if _, err := sch.Schedule(vm); err != nil {
					b.Fatal(err)
				}
			}
			vm := workload.VM{ID: 10_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			round := func() {
				a, err := sch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				sch.Release(a)
			}
			// Warm the assignment/flow pools and the scratch high-water
			// marks; steady state starts after the first few decisions.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkScheduleOneDrop pins the zero-allocation contract of the drop
// path, which dominates overloaded clusters (31–66 % of all decisions on
// the repo benchmark's churn-gated cell, depending on the scheduler). Each sub-benchmark fills
// a cluster until the probe VM is rejected, then re-submits that VM: every
// iteration is a drop that walks the scheduler's whole rejection path and
// leaves the state as it found it. Two shapes:
//
//   - compute: the default cluster filled with CPU-heavy VMs until no CPU
//     box can hold another. RISA finds the INTRA_RACK_POOL and then the
//     SUPER_RACK empty; NULB/NALB find no box for the scarce resource.
//   - network: a one-uplink-per-box cluster filled until every placement
//     the schedulers choose fails its flow reservation — the speculative
//     allocate/rollback path, through RISA's whole pool walk.
//
// Like BenchmarkScheduleOneAllocs it FAILS on any steady-state
// allocation, and scripts/ci/allocguard.sh pins it at 0 allocs/op.
func BenchmarkScheduleOneDrop(b *testing.B) {
	shapes := []struct {
		name    string
		uplinks int
		req     units.Vector
		network bool // the drop must be a network sentinel, not a DropReason
	}{
		{"compute", 16, units.Vec(64, 4, 64), false},
		{"network", 1, units.Vec(8, 16, 128), true},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			for _, alg := range experiments.Algorithms {
				b.Run(alg, func(b *testing.B) {
					setup := experiments.DefaultSetup()
					setup.Network.BoxUplinks = shape.uplinks
					st, err := setup.NewState()
					if err != nil {
						b.Fatal(err)
					}
					sch, err := experiments.NewScheduler(alg, st)
					if err != nil {
						b.Fatal(err)
					}
					vm := workload.VM{Lifetime: 1, Req: shape.req}
					for ; ; vm.ID++ {
						if _, err = sch.Schedule(vm); err != nil {
							break
						}
					}
					var reason *sched.DropReason
					if errors.As(err, &reason) == shape.network {
						b.Fatalf("%s: fill ended with %v, want a %s drop", alg, err, shape.name)
					}
					drop := func() {
						if a, err := sch.Schedule(vm); err == nil {
							b.Fatalf("%s: probe VM placed on %v, want a drop", alg, a)
						}
					}
					for i := 0; i < 64; i++ {
						drop()
					}
					if avg := testing.AllocsPerRun(200, drop); avg != 0 {
						b.Fatalf("%s: %.2f allocs/op on the %s drop path, want 0", alg, avg, shape.name)
					}
					b.ResetTimer()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						drop()
					}
				})
			}
		})
	}
}

// BenchmarkScheduleOneUnderFaults asserts the zero-allocation contract
// of the fault path: every iteration fails the rack holding a resident
// VM, displaces that VM through core.Displace (the eviction transaction
// — its records must recycle through the assignment and flow pools),
// makes one Schedule+Release decision against the degraded cluster, and
// repairs the rack (re-seeding both topology index tiers). Like
// BenchmarkScheduleOneAllocs it FAILS on any steady-state allocation,
// and scripts/ci/allocguard.sh pins it at 0 allocs/op.
func BenchmarkScheduleOneUnderFaults(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
				if _, err := sch.Schedule(vm); err != nil {
					b.Fatal(err)
				}
			}
			setRackFailed := func(rack int, failed bool) {
				for _, bx := range st.Cluster.Rack(rack).Boxes() {
					st.Cluster.SetBoxFailed(bx, failed)
				}
			}
			displaced, err := sch.Schedule(workload.VM{ID: 9_999, Lifetime: 1, Req: units.Vec(8, 16, 128)})
			if err != nil {
				b.Fatal(err)
			}
			vm := workload.VM{ID: 10_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			round := func() {
				rack := displaced.CPU.Box.Rack()
				setRackFailed(rack, true)
				if !core.Displace(st, sch, displaced) {
					b.Fatal("half-loaded cluster must absorb the displaced VM")
				}
				a, err := sch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				sch.Release(a)
				setRackFailed(rack, false)
			}
			// Warm the pools and scratch high-water marks.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op on the fault path at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkScheduleOnePreempt asserts the zero-allocation contract of
// the preemption path: on a saturated cluster of tier-2 residents, every
// iteration runs the full preemption transaction for a tier-0 arrival —
// candidate gathering into the pooled PreemptScratch, eligibility filter,
// cheapest-first sort, hold-and-release, the retry Schedule — and then
// restores saturation by releasing the preemptor and re-placing the
// victim. The arrival's shape equals the fillers', so every round evicts
// exactly one victim and the scratch high-water marks stay put. Enforced
// at 0 allocs/op by scripts/ci/allocguard.sh like the other ScheduleOne
// contracts.
func BenchmarkScheduleOnePreempt(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			// Saturate with tier-2 fillers: stop at the first rejection.
			var live []*sched.Assignment
			for i := 0; ; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Tier: 2, Req: units.Vec(8, 16, 128)}
				a, err := sch.Schedule(vm)
				if err != nil {
					break
				}
				live = append(live, a)
			}
			var scr sched.Scratch
			vm := workload.VM{ID: 10_000, Lifetime: 1, Tier: 0, Req: units.Vec(8, 16, 128)}
			round := func() {
				ps := scr.Preemption()
				ps.Reset()
				for j, la := range live {
					ps.Add(la, j)
				}
				a, k := core.Preempt(st, sch, ps, vm)
				if a == nil {
					b.Fatal("saturated cluster must yield a victim")
				}
				// Restore saturation: the preemptor leaves, the victims
				// re-place into the capacity it freed, records recycling
				// through the pool.
				sch.Release(a)
				for v := 0; v < k; v++ {
					idx := ps.Ref(v)
					vmv := live[idx].VM
					st.ReleaseVM(live[idx])
					na, err := sch.Schedule(vmv)
					if err != nil {
						b.Fatalf("victim re-place: %v", err)
					}
					live[idx] = na
				}
			}
			// Warm the pools and the scratch high-water marks.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op on the preempt path at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkScheduleOneResumed asserts the zero-allocation contract of
// the decision path on a RESTORED datacenter: a half-loaded cluster is
// captured with sim.CaptureState and rebuilt into a pristine state with
// sim.RestoreState, and steady-state Schedule+Release rounds on the
// restored side must allocate nothing — restore must hand back pools,
// scratch buffers and index tiers as warm as a fresh run leaves them.
// Enforced at 0 allocs/op by scripts/ci/allocguard.sh, like the other
// ScheduleOne contracts.
func BenchmarkScheduleOneResumed(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			warm, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			warmSch, err := experiments.NewScheduler(alg, warm)
			if err != nil {
				b.Fatal(err)
			}
			live := make([]*sched.Assignment, 0, 500)
			for i := 0; i < 500; i++ {
				vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
				a, err := warmSch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				live = append(live, a)
			}
			snap, err := sim.CaptureState(warm, warmSch, live)
			if err != nil {
				b.Fatal(err)
			}
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.RestoreState(st, sch, snap); err != nil {
				b.Fatal(err)
			}
			vm := workload.VM{ID: 10_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
			round := func() {
				a, err := sch.Schedule(vm)
				if err != nil {
					b.Fatal(err)
				}
				sch.Release(a)
			}
			// Warm the assignment/flow pools and scratch high-water marks;
			// restore itself pre-populates the placement side.
			for i := 0; i < 64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op on the resumed path at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkDriverPlace asserts the zero-allocation contract of the
// daemon's drive path: one sim.Driver Place — virtual-time advance, the
// due departure's release, the scheduling decision, and the departure
// push — at steady residency. Arrivals tick one per unit time with a
// fixed lifetime, so once the pipeline fills every Place releases
// exactly one departure and the pending-event heap stops growing; from
// there the whole place/depart cycle must allocate nothing, or risasvc's
// worker loop would leak garbage at every request. Enforced at
// 0 allocs/op by scripts/ci/allocguard.sh like the ScheduleOne contracts.
func BenchmarkDriverPlace(b *testing.B) {
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			st, err := experiments.DefaultSetup().NewState()
			if err != nil {
				b.Fatal(err)
			}
			sch, err := experiments.NewScheduler(alg, st)
			if err != nil {
				b.Fatal(err)
			}
			d := sim.NewDriver(st, sch)
			const lifetime = 500
			id := 0
			var now int64
			round := func() {
				id++
				now++
				vm := workload.VM{ID: id, Arrival: now, Lifetime: lifetime, Req: units.Vec(8, 16, 128)}
				if _, _, err := d.Place(vm); err != nil {
					b.Fatal(err)
				}
			}
			// Fill the pipeline: after `lifetime` rounds one VM departs per
			// arrival, residency holds at `lifetime`, and the event heap's
			// backing array has reached its high-water mark.
			for i := 0; i < lifetime+64; i++ {
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				b.Fatalf("%s: %.2f allocs/op on the drive path at steady state, want 0", alg, avg)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkScheduleOneScale is BenchmarkScheduleOne across cluster sizes:
// the same per-VM decision on clusters from the paper's 18 racks up to
// 16384 (~100k boxes), pre-loaded to the same per-rack operating point.
// With the candidate index and the SoA free vectors the decision time must
// stay near-flat in rack count for NULB/RISA/RISA-BF (compare racks=18 vs
// racks=16384 per algorithm; on noisy runners use interleaved A/B runs —
// see EXPERIMENTS.md). NALB is the exception by definition: its global
// best-uplink scan is Θ(fitting boxes), so skip its top rungs when a run
// needs to stay cheap (the pre-load alone is ~450k NALB decisions there).
func BenchmarkScheduleOneScale(b *testing.B) {
	for _, racks := range experiments.ScaleLadder(experiments.DefaultScaleMaxRacks) {
		b.Run(fmt.Sprintf("racks=%d", racks), func(b *testing.B) {
			for _, alg := range experiments.Algorithms {
				b.Run(alg, func(b *testing.B) {
					setup := experiments.DefaultSetup()
					setup.Topology.Racks = racks
					st, err := setup.NewState()
					if err != nil {
						b.Fatal(err)
					}
					sch, err := experiments.NewScheduler(alg, st)
					if err != nil {
						b.Fatal(err)
					}
					// Pre-load to BenchmarkScheduleOne's operating point
					// (500 VMs on 18 racks), scaled with the cluster.
					for i := 0; i < 500*racks/18; i++ {
						vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
						if _, err := sch.Schedule(vm); err != nil {
							b.Fatal(err)
						}
					}
					vm := workload.VM{ID: 10_000_000, Lifetime: 1, Req: units.Vec(8, 16, 128)}
					// Measure the whole Schedule+Release round rather than
					// excluding Release behind StopTimer/StartTimer as
					// BenchmarkScheduleOne does: each StopTimer runs a
					// stop-the-world ReadMemStats whose cost grows with the
					// heap, so at the 16384-rack rung (~170 MB of state) the
					// per-iteration pause pollutes the measurement ~2×
					// and fakes a scale regression (profile: readmemstats_m
					// +22%, mcache flushes, procresize). The pair is the
					// steady-state unit of work anyway, and Release is the
					// cheap half.
					b.ResetTimer()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						a, err := sch.Schedule(vm)
						if err != nil {
							b.Fatal(err)
						}
						sch.Release(a)
					}
				})
			}
		})
	}
}

// BenchmarkSynthetic is one full §5.1 synthetic-workload simulation per
// algorithm: its per-iteration time is Figure 11, its inter-rack metric
// Figure 5.
func BenchmarkSynthetic(b *testing.B) {
	setup := experiments.DefaultSetup()
	tr, err := setup.SyntheticTrace()
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range experiments.Algorithms {
		b.Run(alg, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := setup.RunOne(alg, tr)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.InterRack), "inter-rack")
				b.ReportMetric(float64(res.SchedulingTime.Microseconds()), "sched-µs")
			}
		})
	}
}

// BenchmarkAzure is one full §5.2 practical-workload simulation per
// subset and algorithm: Figures 7 (inter-rack %), 9 (peak kW),
// 10 (latency) are reported as custom metrics and Figure 12 is the
// per-iteration time.
func BenchmarkAzure(b *testing.B) {
	setup := experiments.AzureSetup()
	for _, subset := range workload.Subsets() {
		tr, err := setup.AzureTrace(subset)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(subset.String(), func(b *testing.B) {
			for _, alg := range experiments.Algorithms {
				b.Run(alg, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := setup.RunOne(alg, tr)
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(res.InterRackPct, "inter-rack-%")
						b.ReportMetric(res.PeakPowerW/1000, "peak-kW")
						b.ReportMetric(float64(res.MeanCPURAMLatency.Nanoseconds()), "cpu-ram-ns")
						b.ReportMetric(float64(res.SchedulingTime.Microseconds()), "sched-µs")
					}
				})
			}
		})
	}
}

// BenchmarkAzureTraceGeneration measures the Figure 6 workload generator.
func BenchmarkAzureTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.AzureLike(workload.AzureConfig{
			Subset: workload.Azure7500, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkToyExample1 replays Table 3's scenario (NULB + RISA).
func BenchmarkToyExample1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunToy1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkToyExample2 replays Table 4's packing trace (RISA + RISA-BF).
func BenchmarkToyExample2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunToy2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquation1 measures the §3.2 per-VM switch energy model.
func BenchmarkEquation1(b *testing.B) {
	cfg := optics.DefaultConfig()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.SwitchEnergy(256, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowPower measures the steady-state flow power computation the
// simulator performs on every arrival and departure.
func BenchmarkFlowPower(b *testing.B) {
	cl, err := topology.New(topology.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	fab, err := network.NewFabric(cl, network.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	model, err := power.NewModel(optics.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	fl, err := fab.AllocateFlow(cl.Rack(0).BoxesOf(units.CPU)[0],
		cl.Rack(1).BoxesOf(units.RAM)[0], 20, network.FirstFit)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.FlowPower(fl)
	}
}

// BenchmarkAblationPacking measures the packing-policy ablation
// (DESIGN.md §6) — one synthetic run per policy per iteration.
func BenchmarkAblationPacking(b *testing.B) {
	setup := experiments.DefaultSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := setup.RunPackingAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRoundRobin measures the round-robin ablation.
func BenchmarkAblationRoundRobin(b *testing.B) {
	setup := experiments.DefaultSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := setup.RunRoundRobinAblation(900); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntraRackPool measures RISA's INTRA_RACK_POOL construction —
// one FitsWholeVM probe per rack on a half-loaded cluster. This is the
// query the incremental free-capacity index serves in O(1) amortized per
// rack; before the index every probe rescanned the rack's boxes.
func BenchmarkIntraRackPool(b *testing.B) {
	st, err := experiments.DefaultSetup().NewState()
	if err != nil {
		b.Fatal(err)
	}
	sch, err := experiments.NewScheduler("RISA", st)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		vm := workload.VM{ID: i, Lifetime: 1, Req: units.Vec(8, 16, 128)}
		if _, err := sch.Schedule(vm); err != nil {
			b.Fatal(err)
		}
	}
	req := units.Vec(8, 16, 128)
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		pool := 0
		for i := 0; i < b.N; i++ {
			for _, rack := range st.Cluster.Racks() {
				if rack.FitsWholeVM(req) {
					pool++
				}
			}
		}
		if pool == 0 {
			b.Fatal("no rack ever fit the typical VM")
		}
	})
	// The pre-index pool build, for comparison: every probe rescans the
	// rack's boxes per resource.
	b.Run("bruteforce", func(b *testing.B) {
		b.ReportAllocs()
		pool := 0
		for i := 0; i < b.N; i++ {
		racks:
			for _, rack := range st.Cluster.Racks() {
				for _, k := range units.Resources() {
					if req[k] == 0 {
						continue
					}
					var max units.Amount
					for _, box := range rack.BoxesOf(k) {
						if f := box.Free(); f > max {
							max = f
						}
					}
					if max < req[k] {
						continue racks
					}
				}
				pool++
			}
		}
		if pool == 0 {
			b.Fatal("no rack ever fit the typical VM")
		}
	})
}

// BenchmarkExperimentGrid runs a 12-cell experiment grid (3 synthetic
// seeds × 4 algorithms) serially and on the worker pool; the ratio is the
// wall-clock speedup of the parallel experiment engine.
func BenchmarkExperimentGrid(b *testing.B) {
	setup := experiments.DefaultSetup()
	var jobs []experiments.Job
	for _, seed := range []int64{1, 2, 3} {
		s := setup
		s.Seed = seed
		tr, err := s.SyntheticTrace()
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range experiments.Algorithms {
			jobs = append(jobs, experiments.Job{Setup: s, Algorithm: alg, Trace: tr})
		}
	}
	widths := []int{1, runtime.GOMAXPROCS(0)}
	if widths[1] == 1 {
		// Single-core machine: the second width measures pool overhead
		// rather than speedup.
		widths[1] = 4
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			eng := experiments.Engine{Workers: workers}
			for i := 0; i < b.N; i++ {
				if err := experiments.FirstError(eng.Run(jobs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllocateVM measures the shared compute+network placement
// transaction in isolation.
func BenchmarkAllocateVM(b *testing.B) {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rack := st.Cluster.Rack(0)
	boxes := sched.BoxTriple{
		units.CPU:     rack.BoxesOf(units.CPU)[0],
		units.RAM:     rack.BoxesOf(units.RAM)[0],
		units.Storage: rack.BoxesOf(units.Storage)[0],
	}
	vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(8, 16, 128)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := st.AllocateVM(vm, boxes, network.FirstFit)
		if err != nil {
			b.Fatal(err)
		}
		st.ReleaseVM(a)
	}
}

// BenchmarkChurnSteadyState measures sustained steady-state scheduling
// throughput: one 20 000-arrival controlled churn cell (RISA, 75 %
// target occupancy) per iteration, reporting warmup-included
// placements/sec as the headline metric. This is the open-ended
// counterpart of BenchmarkSynthetic: the stream engine pulls arrivals
// lazily, so the measured rate is what `risasim -exp churn` sustains per
// worker.
func BenchmarkChurnSteadyState(b *testing.B) {
	setup := experiments.DefaultSetup()
	cfg := sim.StreamConfig{Workload: sim.StreamWorkload{MaxArrivals: 20000}, Windows: sim.StreamWindows{Warmup: 12600, Window: 6300}}
	rung := experiments.ChurnRung{Label: "75%", Target: 0.75}
	var perSec float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := setup.RunChurnCell("RISA", rung, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalAccepted == 0 {
			b.Fatal("churn cell placed nothing")
		}
		perSec = res.PlacementsPerSec()
	}
	b.ReportMetric(perSec, "placements/s")
}

// BenchmarkChurnAgents measures the concurrent-agent speedup on a
// network-gated churn cell: 96 racks with thin box uplinks at an 80 %
// occupancy target, where a large fraction of arrivals exhausts both
// placement tiers — the regime where serial scheduling burns most of its
// time proving drops, and where the agent pool's parallel conclusive
// certificates pay off. agents1 runs the bit-identical serial path;
// agents4 fans proposals over four shards and commits serially. (No
// hyphen before the count: allocguard's name normalizer strips a
// trailing -<digits> GOMAXPROCS suffix, which would eat "-4".)
//
// Two throughput metrics per sub-benchmark: wall-p/s divides by the
// host's observed wall time, sched-p/s by the critical-path
// SchedulingTime (settle + slowest agent's propose per round + serial
// commit section — see DESIGN.md §12). On a host with a core per agent
// the two converge; on fewer cores wall-p/s understates the speedup by
// the timeslicing factor while sched-p/s stays the scaling figure.
// benchguard runs the sub-benchmarks in interleaved A/B rounds;
// EXPERIMENTS.md records the measured ratios.
func BenchmarkChurnAgents(b *testing.B) {
	for _, agents := range []int{1, 4} {
		b.Run(fmt.Sprintf("agents%d", agents), func(b *testing.B) {
			setup := experiments.DefaultSetup()
			setup.Topology.Racks = 96
			setup.Network.BoxUplinks = 4
			cfg := sim.StreamConfig{
				Workload:    sim.StreamWorkload{MaxArrivals: 20000},
				Windows:     sim.StreamWindows{Warmup: 12600, Window: 6300},
				Concurrency: sim.StreamConcurrency{Agents: agents, Round: 64 * min(agents-1, 1)},
			}
			rung := experiments.ChurnRung{Label: "80%", Target: 0.80}
			var wallPS, schedPS float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := setup.RunChurnCell("RISA", rung, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalAccepted == 0 {
					b.Fatal("churn cell placed nothing")
				}
				wallPS = res.PlacementsPerSec()
				schedPS = float64(res.TotalAccepted) / res.SchedulingTime.Seconds()
			}
			b.ReportMetric(wallPS, "wall-p/s")
			b.ReportMetric(schedPS, "sched-p/s")
		})
	}
}

// BenchmarkProposeCommit pins the zero-allocation contract of the agent
// commit path: one settle + Propose + CommitProposal + release per
// iteration, the exact per-VM sequence the agent loop's happy path
// performs. Guarded at 0 allocs/op by scripts/ci/allocguard.sh next to
// the serial Schedule benchmarks.
func BenchmarkProposeCommit(b *testing.B) {
	st, err := sched.NewState(topology.DefaultConfig(), network.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s := core.New(st)
	vm := workload.VM{ID: 0, Lifetime: 1, Req: units.Vec(8, 16, 128)}
	shard := make(sched.RackMask, st.Cluster.NumRacks())
	for i := range shard {
		shard[i] = true
	}
	st.Cluster.Settle()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Cluster.Settle()
		p, ok := s.Propose(vm, shard)
		if !ok {
			b.Fatal("fresh cluster must yield a proposal")
		}
		a, err := st.CommitProposal(p)
		if err != nil {
			b.Fatal(err)
		}
		st.ReleaseVM(a)
	}
}
