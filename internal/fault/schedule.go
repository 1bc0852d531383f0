package fault

import (
	"fmt"

	"netdimm/internal/sim"
)

// This file is the scheduled half of the fault plane. The Injector's
// per-frame probabilities model memoryless noise; real fabric failures are
// correlated in time — a link flaps for fifty microseconds, a spine dies
// mid-run, loss arrives in bursts. A Schedule describes those correlated
// events declaratively (timed outage windows plus a Gilbert–Elliott
// burst-loss process), the fabric arms them as ordinary engine events at
// absolute instants, and every random decision rides a sim.Rand stream, so
// the failure trace is byte-identical sequentially, in parallel and at any
// shard count.

// Outage element kinds. Link outages name a host's NIC uplink (Index is
// the host); trunk outages name one leaf↔spine cable (Leaf + Index);
// spine and leaf outages take a whole switch down (Index).
const (
	OutageLink  = "link"
	OutageTrunk = "trunk"
	OutageSpine = "spine"
	OutageLeaf  = "leaf"
)

// Outage is one scheduled failure window: the named element is down for
// [StartNs, EndNs) and healthy again at EndNs. Windows on the same element
// may overlap; the element stays down until every covering window has
// ended. Times are plain nanosecond integers so a scenario JSON file can
// address them directly.
type Outage struct {
	// Kind is the failed element's layer: "link" (a host uplink), "trunk"
	// (one leaf↔spine cable), "spine" or "leaf" (a whole switch).
	Kind string
	// Index names the element within its layer: the host for a link, the
	// switch for a spine/leaf, the spine end for a trunk.
	Index int
	// Leaf is the leaf end of a trunk outage; ignored for other kinds.
	Leaf int
	// StartNs and EndNs bound the half-open down window in nanoseconds.
	StartNs int
	EndNs   int
}

// Window returns the outage bounds as simulation times.
func (o Outage) Window() (start, end sim.Time) {
	return sim.Time(o.StartNs) * sim.Nanosecond, sim.Time(o.EndNs) * sim.Nanosecond
}

// Validate checks the window for internal consistency. Index bounds are
// topology-dependent and checked when the schedule is armed.
func (o Outage) Validate() error {
	switch o.Kind {
	case OutageLink, OutageTrunk, OutageSpine, OutageLeaf:
	default:
		return fmt.Errorf("fault: unknown outage kind %q (want link, trunk, spine or leaf)", o.Kind)
	}
	if o.Index < 0 {
		return fmt.Errorf("fault: outage Index must not be negative, got %d", o.Index)
	}
	if o.Leaf < 0 {
		return fmt.Errorf("fault: outage Leaf must not be negative, got %d", o.Leaf)
	}
	if o.StartNs < 0 {
		return fmt.Errorf("fault: outage StartNs must not be negative, got %d", o.StartNs)
	}
	if o.EndNs <= o.StartNs {
		return fmt.Errorf("fault: outage window [%d, %d) is empty", o.StartNs, o.EndNs)
	}
	return nil
}

func (o Outage) String() string {
	start, end := o.Window()
	if o.Kind == OutageTrunk {
		return fmt.Sprintf("trunk l%d-s%d down [%v, %v)", o.Leaf, o.Index, start, end)
	}
	return fmt.Sprintf("%s %d down [%v, %v)", o.Kind, o.Index, start, end)
}

// Burst configures a Gilbert–Elliott two-state burst-loss process at the
// fabric ingress: a hidden good/bad state flips with the transition
// probabilities and each frame is lost with the current state's loss
// probability, so losses cluster instead of arriving independently. The
// zero value disables the process.
type Burst struct {
	// GoodLossProb is the per-frame loss probability in the good state
	// (usually 0 or tiny).
	GoodLossProb float64
	// BadLossProb is the per-frame loss probability in the bad state.
	BadLossProb float64
	// GoodToBad and BadToGood are the per-frame state-flip probabilities;
	// their ratio sets how often bursts occur and how long they last.
	GoodToBad float64
	BadToGood float64
}

// Enabled reports whether the process can ever lose a frame: the good
// state loses directly, the bad state only if it is reachable. A disabled
// process consumes no random values.
func (b Burst) Enabled() bool {
	return b.GoodLossProb > 0 || (b.BadLossProb > 0 && b.GoodToBad > 0)
}

// Validate checks the process parameters.
func (b Burst) Validate() error {
	probs := []struct {
		name string
		p    float64
	}{
		{"GoodLossProb", b.GoodLossProb},
		{"BadLossProb", b.BadLossProb},
		{"GoodToBad", b.GoodToBad},
		{"BadToGood", b.BadToGood},
	}
	for _, pr := range probs {
		if !(pr.p >= 0 && pr.p <= 1) { // NaN fails both comparisons
			return fmt.Errorf("fault: Burst %s must be in [0,1], got %g", pr.name, pr.p)
		}
	}
	return nil
}

func (b Burst) String() string {
	return fmt.Sprintf("burst loss %.2g/%.2g (g→b %.2g, b→g %.2g)",
		b.GoodLossProb, b.BadLossProb, b.GoodToBad, b.BadToGood)
}

// Schedule is the correlated-failure block of a fault Spec: the timed
// outage windows plus the burst-loss process. The zero value schedules
// nothing, arms no events and consumes no random values, so default
// configurations stay byte-identical to a schedule-free simulator.
type Schedule struct {
	// Outages are the timed down windows, armed in order.
	Outages []Outage
	// Burst is the Gilbert–Elliott ingress loss process.
	Burst Burst
	// Seed perturbs the burst process's stream independently of the cell
	// seed, like Spec.Seed does for the injector.
	Seed uint64
}

// Enabled reports whether the schedule does anything.
func (s Schedule) Enabled() bool {
	return len(s.Outages) > 0 || s.Burst.Enabled()
}

// Validate checks every window and the burst process.
func (s Schedule) Validate() error {
	for i, o := range s.Outages {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("fault: Outages[%d]: %w", i, err)
		}
	}
	return s.Burst.Validate()
}

// String summarises the schedule compactly.
func (s Schedule) String() string {
	if !s.Enabled() {
		return "disabled"
	}
	out := ""
	for _, o := range s.Outages {
		if out != "" {
			out += ", "
		}
		out += o.String()
	}
	if s.Burst.Enabled() {
		if out != "" {
			out += ", "
		}
		out += s.Burst.String()
	}
	return out
}

// GilbertElliott is the running burst-loss process: single-goroutine like
// the engine that consults it, one instance per simulation cell. A nil
// process never loses a frame, so callers can hold the nil returned for a
// disabled Burst and skip the branch.
type GilbertElliott struct {
	spec Burst
	rng  *sim.Rand
	bad  bool

	// Losses counts frames the process consumed; BadEntries counts
	// good→bad transitions (the burst count).
	Losses     uint64
	BadEntries uint64
}

// NewGilbertElliott builds the process, or returns nil when the spec is
// disabled (so no random stream is even allocated).
func NewGilbertElliott(b Burst, seed uint64) *GilbertElliott {
	if !b.Enabled() {
		return nil
	}
	return &GilbertElliott{spec: b, rng: sim.NewRand(seed)}
}

// Bad reports whether the process is currently in its bad (bursty) state.
func (g *GilbertElliott) Bad() bool { return g != nil && g.bad }

// Lose draws one frame decision: flip the hidden state, then lose the
// frame with the state's probability. Every call consumes exactly two
// random values regardless of parameters or outcome, so the stream — and
// every decision after it — is identical across runs.
func (g *GilbertElliott) Lose() bool {
	if g == nil {
		return false
	}
	flip := g.rng.Float64()
	loss := g.rng.Float64()
	if g.bad {
		if flip < g.spec.BadToGood {
			g.bad = false
		}
	} else if flip < g.spec.GoodToBad {
		g.bad = true
		g.BadEntries++
	}
	p := g.spec.GoodLossProb
	if g.bad {
		p = g.spec.BadLossProb
	}
	if loss < p {
		g.Losses++
		return true
	}
	return false
}
