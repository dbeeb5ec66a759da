package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"risa/internal/sched"
	"risa/internal/workload"
)

// sameEvent compares the comparable projection of two events (the do
// field is a func and only compares against nil).
func sameEvent(a, b event) bool {
	return a.t == b.t && a.kind == b.kind && a.seq == b.seq && a.vm == b.vm && a.a == b.a
}

// isZeroEvent reports whether e holds nothing.
func isZeroEvent(e event) bool {
	return e.t == 0 && e.kind == 0 && e.seq == 0 &&
		e.vm == (workload.VM{}) && e.a == nil && e.do == nil
}

// refHeap is a minimal container/heap implementation over events — the
// code the 4-ary heap replaced — kept as the test oracle.
type refHeap []event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestHeap4MatchesContainerHeap drives the 4-ary heap and the
// container/heap oracle with the same random push/pop sequence and
// requires identical pops throughout — the property behind the
// bit-identical experiment outputs.
func TestHeap4MatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var h eventQueue
		var ref refHeap
		seq := 0
		for step := 0; step < 400; step++ {
			if h.Len() != ref.Len() {
				t.Fatalf("trial %d step %d: len %d vs oracle %d", trial, step, h.Len(), ref.Len())
			}
			if h.Len() == 0 || rng.Intn(3) > 0 {
				e := event{
					t:    int64(rng.Intn(50)),
					kind: eventKind(rng.Intn(3)),
					seq:  seq,
				}
				seq++
				h.Push(e)
				heap.Push(&ref, e)
				continue
			}
			got := h.Pop()
			want := heap.Pop(&ref).(event)
			if !sameEvent(got, want) {
				t.Fatalf("trial %d step %d: popped %+v, oracle %+v", trial, step, got, want)
			}
		}
		for h.Len() > 0 {
			got := h.Pop()
			want := heap.Pop(&ref).(event)
			if !sameEvent(got, want) {
				t.Fatalf("trial %d drain: popped %+v, oracle %+v", trial, got, want)
			}
		}
	}
}

// swapHeap is the swap-based 4-ary sift the hole-sifting eventQueue
// replaced, kept as the layout oracle: snapshots store the queue's backing
// slice verbatim, so the new sift must leave every event in the slot the
// old one did, not merely pop in the same order.
type swapHeap struct{ s []event }

func (h *swapHeap) push(v event) {
	h.s = append(h.s, v)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.s[i].before(&h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *swapHeap) pop() event {
	n := len(h.s) - 1
	min := h.s[0]
	h.s[0] = h.s[n]
	h.s[n] = event{}
	h.s = h.s[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		smallest := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.s[c].before(&h.s[smallest]) {
				smallest = c
			}
		}
		if !h.s[smallest].before(&h.s[i]) {
			break
		}
		h.s[i], h.s[smallest] = h.s[smallest], h.s[i]
		i = smallest
	}
	return min
}

// TestHeap4MatchesSwapSift drives the hole-sifting queue and the
// swap-based oracle with one random push/pop script (with many equal
// times and kinds, so the sequence tie-break is exercised) and requires
// the two backing slices to agree element for element after every step.
func TestHeap4MatchesSwapSift(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var h eventQueue
		var ref swapHeap
		seq := 0
		steps := 1 + rng.Intn(600)
		for step := 0; step < steps; step++ {
			if h.Len() == 0 || rng.Intn(5) < 3 {
				e := event{
					t:    int64(rng.Intn(20)),
					kind: eventKind(rng.Intn(4)),
					seq:  rng.Intn(8) + seq,
					vm:   workload.VM{ID: seq},
				}
				seq++
				h.Push(e)
				ref.push(e)
			} else if got, want := h.Pop(), ref.pop(); !sameEvent(got, want) {
				t.Fatalf("trial %d step %d: popped %+v, oracle %+v", trial, step, got, want)
			}
			if len(h.s) != len(ref.s) {
				t.Fatalf("trial %d step %d: len %d vs oracle %d", trial, step, len(h.s), len(ref.s))
			}
			for i := range h.s {
				if !sameEvent(h.s[i], ref.s[i]) {
					t.Fatalf("trial %d step %d: slot %d holds %+v, oracle %+v", trial, step, i, h.s[i], ref.s[i])
				}
			}
		}
	}
}

// TestHeap4OrdersSimultaneousEvents pins the simulator's event ordering
// contract: at one timestamp, injections fire before departures before
// arrivals, FIFO within a class.
func TestHeap4OrdersSimultaneousEvents(t *testing.T) {
	var h eventQueue
	h.Push(event{t: 5, kind: arrival, seq: 3})
	h.Push(event{t: 5, kind: departure, seq: 2})
	h.Push(event{t: 5, kind: inject, seq: 1})
	h.Push(event{t: 5, kind: departure, seq: 0})
	h.Push(event{t: 4, kind: arrival, seq: 4})
	want := []event{
		{t: 4, kind: arrival, seq: 4},
		{t: 5, kind: inject, seq: 1},
		{t: 5, kind: departure, seq: 0},
		{t: 5, kind: departure, seq: 2},
		{t: 5, kind: arrival, seq: 3},
	}
	for i, w := range want {
		if got := h.Pop(); !sameEvent(got, w) {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestHeap4PopClearsSlot is the regression test for the event-queue
// memory retention bug: the old container/heap Pop moved the popped event
// to the end of the backing array and re-sliced, leaving the event — and
// through its *Assignment, the departed VM's whole placement record —
// reachable until the slot happened to be overwritten. The new Pop must
// zero every slot it vacates.
func TestHeap4PopClearsSlot(t *testing.T) {
	var h eventQueue
	for i := 0; i < 8; i++ {
		h.Push(event{
			t:    int64(i),
			kind: departure,
			seq:  i,
			vm:   workload.VM{ID: i},
			a:    &sched.Assignment{},
		})
	}
	backing := h.s[:cap(h.s)]
	for h.Len() > 0 {
		h.Pop()
	}
	for i, e := range backing {
		if !isZeroEvent(e) {
			t.Fatalf("backing slot %d still holds %+v after pop (assignment retained: %v)",
				i, e, e.a != nil)
		}
	}
}

// TestHeap4PushPopDoesNotAllocate asserts the non-boxing contract: at
// steady state (capacity already grown) a push/pop cycle performs zero
// heap allocations, where the container/heap API boxed every pushed event.
func TestHeap4PushPopDoesNotAllocate(t *testing.T) {
	var h eventQueue
	for i := 0; i < 64; i++ {
		h.Push(event{t: int64(i), seq: i})
	}
	i := 1000
	avg := testing.AllocsPerRun(100, func() {
		h.Push(event{t: int64(i), seq: i})
		i++
		h.Pop()
	})
	if avg != 0 {
		t.Fatalf("push/pop allocates %.2f times per cycle at steady state, want 0", avg)
	}
}
