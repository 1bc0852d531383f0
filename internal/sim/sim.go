// Package sim provides the discrete-event simulation kernel that every
// architectural model in this repository runs on.
//
// The kernel is deliberately small: a picosecond-resolution clock, a binary
// heap of pending events, and deterministic tie-breaking (events scheduled
// for the same instant fire in the order they were scheduled). Determinism
// matters because the experiments in internal/experiments assert quantitative
// relationships between runs; two simulations built from the same seed must
// produce identical event interleavings.
//
// Event storage is an intrusive slot arena with a free list: event structs
// live in one slice, the heap orders int32 slot indices, and EventIDs carry
// a per-slot generation so a stale ID can never cancel the slot's next
// occupant. Scheduling an event therefore costs no per-event heap pointer
// and no map insert/delete on the hot path.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a simulated instant or duration in integer picoseconds.
//
// Picoseconds keep DDR timing exact: a DDR4-2400 clock period is 833ps,
// which a nanosecond clock could not represent without rounding drift.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable instant; used as "never".
const MaxTime Time = math.MaxInt64

// Nanoseconds returns t as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a float64 microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit, e.g. "1.234us". A negative
// time renders with the same adaptive unit and a leading sign.
func (t Time) String() string {
	switch {
	case t == math.MinInt64:
		// -t would overflow; the only value that cannot reuse the
		// positive path renders in raw picoseconds.
		return fmt.Sprintf("%dps", int64(t))
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromNanos converts a float64 nanosecond count to a Time, rounding to the
// nearest picosecond.
func FromNanos(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }

// FromDuration converts a time.Duration to a Time exactly: a Duration is an
// integer nanosecond count and Time is integer picoseconds, so the
// conversion is a multiplication by 1000, not a truncation. Durations whose
// picosecond count does not fit in int64 (beyond roughly ±106 days)
// saturate to ±MaxTime instead of overflowing.
func FromDuration(d time.Duration) Time {
	const maxNs = int64(MaxTime) / int64(Nanosecond)
	ns := d.Nanoseconds()
	if ns > maxNs {
		return MaxTime
	}
	if ns < -maxNs {
		return -MaxTime
	}
	return Time(ns) * Nanosecond
}

// Duration converts t to a time.Duration, truncating toward zero to whole
// nanoseconds (the resolution of every reported result row).
func (t Time) Duration() time.Duration { return time.Duration(t / Nanosecond) }

// event is one arena slot. A slot is live while it sits in the heap with
// dead == false; cancellation is lazy (dead is set, the heap entry stays
// until popped). gen advances every time the slot is released, invalidating
// all previously minted EventIDs for it.
type event struct {
	when Time
	seq  uint64 // tie-breaker: schedule order
	fn   func()
	gen  uint32
	dead bool // cancelled, heap entry not yet reaped
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// EventID is never issued. Internally it packs (slot+1, generation).
type EventID uint64

func makeID(slot int32, gen uint32) EventID {
	return EventID(uint64(slot)+1)<<32 | EventID(gen)
}

// Engine is a single-threaded discrete-event simulator.
//
// Engines are not safe for concurrent use; all model components attached to
// an Engine must schedule and run on the same goroutine. (Independent
// engines on independent goroutines are fine — that is how the parallel
// experiment runner fans out.)
type Engine struct {
	now       Time
	events    []event // slot arena; grows, never shrinks
	free      []int32 // released slots available for reuse
	heap      []int32 // binary heap of live+dead slots by (when, seq)
	nextSeq   uint64
	live      int // scheduled and not cancelled
	fired     uint64
	lastFired Time // timestamp of the most recent fired event
	stopped   bool

	// Watchdog state (see watchdog.go). wdOn keeps the hot path to a
	// single branch when no watchdog is armed.
	wd          Watchdog
	wdOn        bool
	wdErr       *WatchdogError
	wdBaseFired uint64
	wdSameTime  uint64
	wdLastNow   Time
	wdStart     time.Time

	// Probe state (see probe.go). probeOn keeps the hot path to a single
	// branch when no probe is attached, exactly like wdOn.
	probe   Probe
	probeOn bool
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// LastFired returns the timestamp of the most recent fired event (zero if
// none fired yet). Unlike Now, it is not advanced by RunUntil's
// clock-to-deadline jump, which makes it the makespan measure a windowed
// (sharded) run shares with a plain Run.
func (e *Engine) LastFired() Time { return e.lastFired }

// Pending reports how many events are scheduled and not cancelled.
func (e *Engine) Pending() int { return e.live }

// Schedule runs fn after delay. A negative delay is an error in the caller;
// it panics because it would corrupt causality.
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	return e.At(e.now+delay, fn)
}

// At runs fn at the absolute instant when. Scheduling in the past panics.
func (e *Engine) At(when Time, fn func()) EventID {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", when, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.events = append(e.events, event{})
		slot = int32(len(e.events) - 1)
	}
	ev := &e.events[slot]
	ev.when = when
	ev.seq = e.nextSeq
	ev.fn = fn
	ev.dead = false
	e.nextSeq++
	e.live++
	e.heap = append(e.heap, slot)
	e.up(len(e.heap) - 1)
	if e.probeOn {
		e.probe.OnSchedule(when)
	}
	return makeID(slot, ev.gen)
}

// Cancel removes a pending event. Cancelling an event that already fired or
// was already cancelled is a no-op returning false. The heap entry is
// reaped lazily when it reaches the root.
func (e *Engine) Cancel(id EventID) bool {
	slot := int64(id>>32) - 1
	if slot < 0 || slot >= int64(len(e.events)) {
		return false
	}
	ev := &e.events[slot]
	if ev.gen != uint32(id) || ev.dead || ev.fn == nil {
		return false
	}
	ev.dead = true
	ev.fn = nil
	e.live--
	if e.probeOn {
		e.probe.OnCancel(e.now)
	}
	return true
}

// Stop makes the current Run/RunUntil call return after the in-flight event
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// release returns a popped slot to the free list, bumping its generation so
// outstanding EventIDs for the old occupant can never touch the new one.
func (e *Engine) release(slot int32) {
	ev := &e.events[slot]
	ev.fn = nil
	ev.dead = false
	ev.gen++
	e.free = append(e.free, slot)
}

// step executes the earliest event. It reports false if none remain.
func (e *Engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	slot := e.heap[0]
	ev := &e.events[slot]
	if ev.dead {
		var ok bool
		if slot, ok = e.reapRoot(); !ok {
			return false
		}
		ev = &e.events[slot]
	}
	e.popRoot()
	fn := ev.fn
	e.now = ev.when
	e.fired++
	e.live--
	// Release before firing: fn may schedule into the freed slot, and
	// the generation bump keeps the old ID from reaching the newcomer.
	e.release(slot)
	if e.probeOn {
		e.probe.OnFire(e.now)
	}
	fn()
	return true
}

// Run executes events until the queue drains, Stop is called, or an armed
// watchdog trips (see SetWatchdog; the diagnostic is then available from
// Err).
//
// lastFired is reconciled once per run, not per event: inside the loop the
// clock only moves when an event fires, so if anything fired, e.now is the
// last fired instant when the loop exits. Keeping the bookkeeping out of
// step keeps the hot path to the same stores as before lastFired existed.
func (e *Engine) Run() {
	e.stopped = false
	fired := e.fired
	for !e.stopped {
		if e.wdOn && !e.wdCheck() {
			break
		}
		if !e.step() {
			break
		}
	}
	if e.fired != fired {
		e.lastFired = e.now
	}
}

// RunUntil executes events with timestamps <= deadline, advancing the clock
// to exactly deadline when it returns (even if the queue drained earlier or
// the next event lies beyond the deadline). An armed watchdog aborts the
// run early, leaving the clock where the abort happened.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	fired := e.fired
	for !e.stopped {
		if e.wdOn && !e.wdCheck() {
			// Abort without the deadline clamp, but reconcile lastFired
			// first: the clock still sits on the last fired event.
			if e.fired != fired {
				e.lastFired = e.now
			}
			return
		}
		when, ok := e.peekWhen()
		if !ok || when > deadline {
			break
		}
		e.step()
	}
	if e.fired != fired {
		e.lastFired = e.now
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// reapRoot pops dead entries off the heap root — the root is known dead on
// entry — releasing each slot, until a live event surfaces (its slot is
// returned) or the heap drains. It is the one copy of the dead-slot reap
// loop, shared by step and peekWhen so the reap-and-release bookkeeping
// (and therefore Pending's exactness) cannot drift between the two paths;
// each caller keeps only the loop-free root-is-live check inline, which is
// what lets the Go compiler inline the hot path.
func (e *Engine) reapRoot() (int32, bool) {
	for {
		e.release(e.heap[0])
		e.popRoot()
		if len(e.heap) == 0 {
			return 0, false
		}
		if slot := e.heap[0]; !e.events[slot].dead {
			return slot, true
		}
	}
}

// peekWhen reports the timestamp of the earliest live event, reaping dead
// heap entries encountered at the root.
func (e *Engine) peekWhen() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	slot := e.heap[0]
	ev := &e.events[slot]
	if ev.dead {
		var ok bool
		if slot, ok = e.reapRoot(); !ok {
			return 0, false
		}
		ev = &e.events[slot]
	}
	return ev.when, true
}

// less orders heap positions i, j by (when, seq).
func (e *Engine) less(i, j int) bool {
	a, b := &e.events[e.heap[i]], &e.events[e.heap[j]]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// up restores the heap invariant after appending at position i.
func (e *Engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// popRoot removes the heap root and restores the invariant.
func (e *Engine) popRoot() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.down(0)
	}
}

// down sifts position i toward the leaves.
func (e *Engine) down(i int) {
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.less(right, left) {
			least = right
		}
		if !e.less(least, i) {
			return
		}
		e.heap[i], e.heap[least] = e.heap[least], e.heap[i]
		i = least
	}
}
