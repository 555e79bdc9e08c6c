package sim

// event is one slot of the simulator's event queue: the callback of a
// scheduled event and its current heap position. Slots are recycled through
// the owning simulator's free list once they leave the queue (their callback
// fired, or they were canceled), so scheduling in steady state allocates
// nothing. Code outside the queue holds a Timer, never a bare *event: gen
// tells a live handle from a stale one.
type event struct {
	fn    func()
	owner *Simulator
	next  *event // free-list link while the slot is unused
	index int32  // heap position while queued
	// gen is bumped every time the slot leaves the queue. A handle would
	// have to outlive 2³² reuses of its slot to alias a newer event.
	gen uint32
}

// Timer is a handle on a scheduled event. It stays valid for exactly one
// scheduling: once the event fires or is canceled, the slot's generation
// moves on and every method becomes a no-op, so a stale handle can never
// touch whatever event reuses the slot. The zero Timer is a valid handle on
// nothing.
type Timer struct {
	e   *event
	gen uint32
}

// Pending reports whether the event is still queued to fire: scheduled, not
// yet fired and not canceled.
func (t Timer) Pending() bool { return t.e != nil && t.e.gen == t.gen }

// Cancel prevents the event from firing and removes it from the queue at
// once. Canceling an event that already fired or was already canceled, or a
// zero Timer, is a no-op.
func (t Timer) Cancel() {
	if !t.Pending() {
		return
	}
	s := t.e.owner
	s.queue.remove(int(t.e.index))
	s.release(t.e)
}

// entry is one event-queue element. The ordering key sits inline, so sifts
// compare entries without dereferencing the event.
type entry struct {
	at  Time
	seq uint64
	e   *event
}

// before orders entries by (time, insertion sequence): simultaneous events
// fire in schedule order. seq is unique, so this is a strict total order and
// any correct heap pops the same sequence.
func (x entry) before(y entry) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

// eventQueue is a 4-ary min-heap of entries. Four children per node halve
// the depth of a binary heap, and the children of one node share a cache
// line or two. Every placement records the entry's position in its event,
// which is what lets Cancel remove it eagerly.
type eventQueue []entry

// set places x at position i.
func (h eventQueue) set(i int, x entry) {
	h[i] = x
	x.e.index = int32(i)
}

// push inserts x.
func (q *eventQueue) push(x entry) {
	*q = append(*q, x)
	q.up(len(*q)-1, x)
}

// pop removes and returns the minimum entry. The queue must be non-empty.
func (q *eventQueue) pop() entry {
	top := (*q)[0]
	q.remove(0)
	return top
}

// remove deletes the entry at position i: the last entry takes its place
// and sifts whichever way restores the heap.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	*q = h
	if i == n {
		return
	}
	if i > 0 && last.before(h[(i-1)/4]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up places x at position i, sifting it toward the root.
func (h eventQueue) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	h.set(i, x)
}

// down places x at position i, sifting it toward the leaves.
func (h eventQueue) down(i int, x entry) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h.set(i, h[m])
		i = m
	}
	h.set(i, x)
}

// schedule inserts an event at absolute time at, reusing a free slot when
// one is available.
func (s *Simulator) schedule(at Time, fn func()) Timer {
	if at < s.now {
		at = s.now
	}
	e := s.free
	if e != nil {
		s.free = e.next
		e.next = nil
	} else {
		e = &event{owner: s}
	}
	e.fn = fn
	s.seq++
	s.queue.push(entry{at: at, seq: s.seq, e: e})
	return Timer{e: e, gen: e.gen}
}

// release returns a slot that left the queue to the free list. Bumping the
// generation first turns every outstanding handle on it stale.
func (s *Simulator) release(e *event) {
	e.gen++
	e.fn = nil
	e.next = s.free
	s.free = e
}

// After schedules fn to run delay after the current time and returns a
// cancelable handle.
func (s *Simulator) After(delay Time, fn func()) Timer {
	return s.schedule(s.now+delay, fn)
}
