package sim

// eventQueue is the simulator's pending-event queue: a 4-ary min-heap of
// events in (time, kind, sequence) order (see event.Less). It replaces
// container/heap, whose heap.Interface API boxed every pushed element
// through interface{} — one allocation per scheduled VM on the churn path.
//
// The heap is written for the one element type it holds. Comparisons take
// two *event and read three words each, where a generic heap's Less call
// through the shape dictionary copied both 104-byte events by value. Both
// sifts move a hole instead of swapping: the moving element is held aside,
// each level shifts one event into the hole, and the element is written
// once at its final slot. Every comparison is the one the swap-based sift
// made, so the backing slice holds the same events in the same slots after
// every Push and Pop (snapshots store it verbatim; TestHeap4MatchesSwapSift
// pins it against the swap-based oracle).
//
// A 4-ary layout (children of i at 4i+1..4i+4) halves the tree depth of
// the binary heap: sift-down does more comparisons per level but those hit
// adjacent slots, which is the better trade for the simulator's pop-heavy
// loop. The sequence of popped events is exactly container/heap's.
//
// Pop zeroes the vacated slot so popped elements do not linger in the
// backing array: the old container/heap Pop left the last element (and
// through it the departed VM's *Assignment) reachable until the slot was
// overwritten, pinning arbitrarily old placements past their release (see
// TestHeap4PopClearsSlot).
type eventQueue struct {
	s []event
}

// Len returns the number of queued events.
func (h *eventQueue) Len() int { return len(h.s) }

// Min returns the earliest event without removing it. It must not be
// called on an empty queue, and the pointer is valid only until the next
// Push or Pop.
func (h *eventQueue) Min() *event { return &h.s[0] }

// Push adds v to the queue.
func (h *eventQueue) Push(v event) {
	h.s = append(h.s, event{})
	s := h.s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !v.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = v
}

// Pop removes and returns the earliest event, zeroing the slot it vacates
// so the backing array retains nothing.
func (h *eventQueue) Pop() event {
	s := h.s
	n := len(s) - 1
	min := s[0]
	last := s[n]
	s[n] = event{} // do not retain the moved element in the dead slot
	s = s[:n]
	h.s = s
	if n == 0 {
		return min
	}

	// Sift the hole left at the root down to where last belongs.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		smallest := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s[c].before(&s[smallest]) {
				smallest = c
			}
		}
		if !s[smallest].before(&last) {
			break
		}
		s[i] = s[smallest]
		i = smallest
	}
	s[i] = last
	return min
}
