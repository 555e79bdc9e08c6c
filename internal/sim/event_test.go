package sim

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

// checkQueue verifies the 4-ary heap property and that every queued event
// records its own position (Cancel removes by that position).
func checkQueue(t *testing.T, s *Simulator) {
	t.Helper()
	for i, x := range s.queue {
		if int(x.e.index) != i {
			t.Fatalf("entry %d records index %d", i, x.e.index)
		}
		if i > 0 && x.before(s.queue[(i-1)/4]) {
			t.Fatalf("entry %d sorts before its parent", i)
		}
	}
}

// TestQueueDifferential drives the queue through random schedule, cancel
// and fire sequences and checks every fired event against a reference: the
// live set sorted by (time, insertion sequence). Cancels hit arbitrary heap
// positions, including the root, and many events share a time, so ties are
// exercised as hard as the ordering key.
func TestQueueDifferential(t *testing.T) {
	type ref struct {
		at  Time
		seq int
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := New(graph.New(1), DefaultConfig())
		var (
			live   []ref // reference: events scheduled and not yet fired or canceled
			timers []Timer
			fired  = -1
			seq    int
		)
		once := func() bool { return false }
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // schedule
				at := s.Now() + Time(rng.Intn(50))
				id := seq
				seq++
				timers = append(timers, s.schedule(at, func() { fired = id }))
				live = append(live, ref{at, id})
			case r < 7: // cancel a random handle, possibly stale
				if len(timers) == 0 {
					continue
				}
				k := rng.Intn(len(timers))
				timers[k].Cancel()
				for i, l := range live {
					if l.seq == k {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			default: // fire the earliest event
				if len(live) == 0 {
					continue
				}
				sort.Slice(live, func(a, b int) bool {
					if live[a].at != live[b].at {
						return live[a].at < live[b].at
					}
					return live[a].seq < live[b].seq
				})
				want := live[0]
				live = live[1:]
				s.RunWhile(Time(1)<<60, once)
				if fired != want.seq || s.Now() != want.at {
					t.Fatalf("trial %d op %d: fired %d at %v, want %d at %v",
						trial, op, fired, s.Now(), want.seq, want.at)
				}
				if timers[want.seq].Pending() {
					t.Fatalf("fired event %d still pending", want.seq)
				}
			}
			if s.Pending() != len(live) {
				t.Fatalf("trial %d op %d: Pending = %d, reference holds %d", trial, op, s.Pending(), len(live))
			}
			checkQueue(t, s)
		}
	}
}

// TestStaleTimerCannotCancelSlotReuse: once an event fires its slot is
// recycled; the old handle must not cancel the event now using that slot.
func TestStaleTimerCannotCancelSlotReuse(t *testing.T) {
	s := New(graph.New(1), DefaultConfig())
	first := s.After(Millisecond, func() {})
	s.Run(Second)
	fired := false
	second := s.After(Millisecond, func() { fired = true })
	if second.e != first.e {
		t.Fatal("the fired slot was not recycled; the test exercises nothing")
	}
	if first.Pending() || !second.Pending() {
		t.Fatalf("pending: stale %v, live %v", first.Pending(), second.Pending())
	}
	first.Cancel()
	if !second.Pending() {
		t.Fatal("stale handle canceled the slot's new event")
	}
	s.Run(2 * Second)
	if !fired {
		t.Fatal("event in the recycled slot never fired")
	}
	// A canceled event's slot is recycled the same way.
	third := s.After(Millisecond, func() {})
	third.Cancel()
	fourth := s.After(Millisecond, func() {})
	third.Cancel()
	if !fourth.Pending() {
		t.Fatal("second cancel through a stale handle hit the reused slot")
	}
}

// TestProcessedCountsFiredEvents: Processed counts callbacks that ran,
// not canceled events.
func TestProcessedCountsFiredEvents(t *testing.T) {
	s := New(graph.New(1), DefaultConfig())
	var evs []Timer
	for i := 0; i < 5; i++ {
		evs = append(evs, s.After(Time(i+1)*Millisecond, func() {}))
	}
	evs[1].Cancel()
	evs[3].Cancel()
	s.Run(Second)
	if got := s.Processed(); got != 3 {
		t.Fatalf("Processed = %d, want 3", got)
	}
}

// TestMACTimerCycleAllocatesNothing pins the steady-state MAC timer path:
// DIFS armed, fired, backoff armed, frozen by a carrier (canceled) and DIFS
// re-armed when the medium clears. Recycled event slots and callbacks bound
// once in newMAC make the whole cycle allocation-free.
func TestMACTimerCycleAllocatesNothing(t *testing.T) {
	s := New(graph.New(1), DefaultConfig())
	m := s.Node(0).mac
	m.state = macContending
	m.backoffSlots = 5 // never reaches zero: nothing is transmitted
	m.backoffArmed = true
	m.armDIFS()
	once := func() bool { return false }
	allocs := testing.AllocsPerRun(200, func() {
		s.RunWhile(Time(1)<<60, once) // difsDone arms the backoff timer
		if !m.backoffTimer.Pending() {
			t.Fatal("backoff timer not armed")
		}
		m.carrierUp()   // freeze: cancels the backoff timer
		m.carrierDown() // medium clear: re-arms DIFS
	})
	if allocs != 0 {
		t.Fatalf("MAC timer cycle allocates %.1f objects, want 0", allocs)
	}
}
