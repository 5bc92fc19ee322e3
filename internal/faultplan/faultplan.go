// Package faultplan is the deterministic fault-injection subsystem of the
// §4.5 reproduction: a cycle-stamped schedule of hardware faults
// (link carrier loss, link flaps, BER excursions, node deaths, stuck
// chips) that the cluster executor (internal/runtime) consumes as events,
// plus the health monitor that *detects* those faults from heartbeat
// staleness and FEC error records and drives the recovery ladder:
//
//	FEC-correct → software replay (with per-attempt link repair)
//	            → N+1 node failover → degraded serving.
//
// Everything here is deterministic by construction. A Plan is explicit
// data; Compile indexes it for O(1) queries; and the monitor's deadline
// math is pure arithmetic on observed heartbeat cycles. Identical plans
// therefore produce identical detections and — because the runtime
// merges fault events into every executor at the same cycles —
// byte-identical runs at any worker count, failures included.
//
// Events are stamped in *wall-clock* fabric cycles: a replay re-bases the
// program at a later wall cycle, so transient events (flaps, excursions
// with an end cycle) naturally do not recur on the replay, while permanent
// events (node death, carrier loss with no end) persist until repaired or
// failed over — exactly the physical behaviour the ladder must handle.
package faultplan

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/topo"
)

// Kind classifies one scheduled fault.
type Kind int

const (
	// LinkDown is carrier loss on one link from Cycle until Until (or
	// forever when Until is zero). Traffic scheduled over a down link
	// arrives at its deskew slot as garbage the FEC flags uncorrectable.
	LinkDown Kind = iota
	// LinkFlap is a transient carrier loss: the link returns at Until but
	// must be re-characterized (hac.Recharacterize) before it is trusted.
	LinkFlap
	// BERExcursion raises one link's bit error rate to BER from Cycle
	// until Until (or forever when Until is zero) — a marginal cable.
	BERExcursion
	// NodeDeath stops every chip of a node at Cycle, permanently.
	NodeDeath
	// StuckChip stops a single chip at Cycle, permanently, while its
	// node-mates keep running.
	StuckChip
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkFlap:
		return "link-flap"
	case BERExcursion:
		return "ber-excursion"
	case NodeDeath:
		return "node-death"
	case StuckChip:
		return "stuck-chip"
	default:
		return "unknown"
	}
}

// Event is one scheduled fault, stamped in wall-clock fabric cycles.
type Event struct {
	// Cycle is the wall-clock cycle the fault begins.
	Cycle int64
	// Until is the wall-clock cycle a transient fault clears; zero means
	// permanent. NodeDeath and StuckChip are always permanent, so a
	// non-zero Until on them fails validation.
	Until int64
	Kind  Kind
	// Link addresses LinkDown / LinkFlap / BERExcursion events.
	Link topo.LinkID
	// Node addresses NodeDeath events.
	Node topo.NodeID
	// Chip addresses StuckChip events.
	Chip topo.TSPID
	// BER is the elevated bit error rate of a BERExcursion.
	BER float64
}

func (e Event) String() string {
	switch e.Kind {
	case NodeDeath:
		return fmt.Sprintf("%v(node %d @%d)", e.Kind, e.Node, e.Cycle)
	case StuckChip:
		return fmt.Sprintf("%v(chip %d @%d)", e.Kind, e.Chip, e.Cycle)
	case BERExcursion:
		return fmt.Sprintf("%v(link %d @%d..%d ber=%g)", e.Kind, e.Link, e.Cycle, e.Until, e.BER)
	default:
		return fmt.Sprintf("%v(link %d @%d..%d)", e.Kind, e.Link, e.Cycle, e.Until)
	}
}

// Plan is a fault schedule. The zero value is a valid empty plan.
type Plan struct {
	Events []Event
}

// Sort orders the events deterministically by (Cycle, Kind, Link, Node,
// Chip) so two plans with the same event multiset compare and compile
// identically.
func (p *Plan) Sort() {
	sort.SliceStable(p.Events, func(i, j int) bool {
		a, b := p.Events[i], p.Events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Chip < b.Chip
	})
}

// Validate checks every event against the system: in-range identifiers,
// sane cycle ranges, and usable BERs.
func (p *Plan) Validate(sys *topo.System) error {
	for i, e := range p.Events {
		if e.Cycle < 0 {
			return fmt.Errorf("faultplan: event %d (%v): negative cycle", i, e)
		}
		if e.Until < 0 {
			return fmt.Errorf("faultplan: event %d (%v): negative until", i, e)
		}
		switch e.Kind {
		case LinkDown, LinkFlap, BERExcursion:
			if int(e.Link) < 0 || int(e.Link) >= len(sys.Links()) {
				return fmt.Errorf("faultplan: event %d (%v): link out of range", i, e)
			}
			if e.Until != 0 && e.Until <= e.Cycle {
				return fmt.Errorf("faultplan: event %d (%v): clears before it starts", i, e)
			}
			if e.Kind == LinkFlap && e.Until == 0 {
				return fmt.Errorf("faultplan: event %d (%v): a flap is transient; set Until", i, e)
			}
			if e.Kind == BERExcursion && (math.IsNaN(e.BER) || math.IsInf(e.BER, 0) || e.BER <= 0 || e.BER >= 1) {
				return fmt.Errorf("faultplan: event %d (%v): BER out of range", i, e)
			}
		case NodeDeath:
			if int(e.Node) < 0 || int(e.Node) >= sys.NumNodes() {
				return fmt.Errorf("faultplan: event %d (%v): node out of range", i, e)
			}
			if e.Until != 0 {
				return fmt.Errorf("faultplan: event %d (%v): node death is permanent; Until must be 0", i, e)
			}
		case StuckChip:
			if int(e.Chip) < 0 || int(e.Chip) >= sys.NumTSPs() {
				return fmt.Errorf("faultplan: event %d (%v): chip out of range", i, e)
			}
			if e.Until != 0 {
				return fmt.Errorf("faultplan: event %d (%v): a stuck chip is permanent; Until must be 0", i, e)
			}
		default:
			return fmt.Errorf("faultplan: event %d: unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// neverDies marks a chip with no scheduled death.
const neverDies = math.MaxInt64

// Compiled is a validated Plan indexed for the O(1) queries the executor
// hot path makes: per-link interval lookups and per-chip death cycles.
type Compiled struct {
	events []Event
	// linkEvents[l] holds l's events sorted by start cycle.
	linkEvents map[topo.LinkID][]Event
	// death[t] is chip t's first stop cycle (node death or stuck chip),
	// or neverDies.
	death []int64
}

// Compile validates the plan against the system and indexes it.
func (p *Plan) Compile(sys *topo.System) (*Compiled, error) {
	if err := p.Validate(sys); err != nil {
		return nil, err
	}
	sorted := Plan{Events: append([]Event(nil), p.Events...)}
	sorted.Sort()
	c := &Compiled{
		events:     sorted.Events,
		linkEvents: map[topo.LinkID][]Event{},
		death:      make([]int64, sys.NumTSPs()),
	}
	for i := range c.death {
		c.death[i] = neverDies
	}
	for _, e := range sorted.Events {
		switch e.Kind {
		case LinkDown, LinkFlap, BERExcursion:
			c.linkEvents[e.Link] = append(c.linkEvents[e.Link], e)
		case NodeDeath:
			base := int(e.Node) * topo.TSPsPerNode
			for i := 0; i < topo.TSPsPerNode; i++ {
				if e.Cycle < c.death[base+i] {
					c.death[base+i] = e.Cycle
				}
			}
		case StuckChip:
			if e.Cycle < c.death[e.Chip] {
				c.death[e.Chip] = e.Cycle
			}
		}
	}
	return c, nil
}

// Events returns the compiled plan's events in deterministic order.
func (c *Compiled) Events() []Event { return c.events }

// active reports whether e covers wall cycle w.
func active(e Event, w int64) bool {
	return w >= e.Cycle && (e.Until == 0 || w < e.Until)
}

// LinkDownAt reports whether link l has lost carrier at wall cycle w.
func (c *Compiled) LinkDownAt(l topo.LinkID, w int64) bool {
	for _, e := range c.linkEvents[l] {
		if e.Cycle > w {
			break
		}
		if (e.Kind == LinkDown || e.Kind == LinkFlap) && active(e, w) {
			return true
		}
	}
	return false
}

// LinkBERAt returns the elevated bit error rate covering link l at wall
// cycle w, if any excursion is active.
func (c *Compiled) LinkBERAt(l topo.LinkID, w int64) (float64, bool) {
	for _, e := range c.linkEvents[l] {
		if e.Cycle > w {
			break
		}
		if e.Kind == BERExcursion && active(e, w) {
			return e.BER, true
		}
	}
	return 0, false
}

// DeathCycle returns the wall cycle at which chip t stops executing, if
// the plan ever kills it.
func (c *Compiled) DeathCycle(t topo.TSPID) (int64, bool) {
	d := c.death[t]
	return d, d != neverDies
}
