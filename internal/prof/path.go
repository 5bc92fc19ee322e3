// Critical-path extraction over the span DAG.
//
// The trace gives exact cycle intervals for every unit instruction
// (pid = chip, tid = functional unit) and every link transfer (pid =
// source chip, tid = TidLinkBase+link, name "c2c.tx>dst"). Dependencies
// follow the machine's dataflow: work on a chip depends on earlier work
// on the same chip or on a transfer INTO the chip; a transfer depends on
// earlier work on its source chip. The walk is backward and greedy: from
// the span that sets the finish cycle, repeatedly hop to the
// latest-ending span that retired at or before the current span started,
// preferring an inbound transfer on ties (a cross-chip arrival is the
// tighter dependence). Any gap between hops is time nothing on the
// dependent chip could issue — attributed as barrier-wait. The resulting
// chain is non-overlapping and reaches back to cycle 0, so
//
//	compute + link + wait == finish cycle
//
// exactly, which the profile experiment and tests assert.
package prof

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
)

// linkTxPrefix is the destination-encoded transfer span name the runtime
// records ("c2c.tx>7" = transfer into chip 7).
const linkTxPrefix = "c2c.tx>"

// analyzePath extracts the critical path from the chip spans.
func (r *Report) analyzePath(spans []span) {
	// Index: byChip[p] = compute spans executed on chip p; txByDst[p] =
	// transfer spans delivering into chip p. Both sorted by (end, pid,
	// tid, start, name) so "latest predecessor" is a binary search and
	// ties resolve identically on every run. Each list is allocated once
	// at its length, counted first.
	nChip, nTx := map[int]int{}, map[int]int{}
	for _, s := range spans {
		switch d := txDst(s); {
		case d == onChip:
			nChip[s.pid]++
		case d >= 0:
			nTx[d]++
		}
	}
	byChip, txByDst := presized(nChip), presized(nTx)
	for _, s := range spans {
		switch d := txDst(s); {
		case d == onChip:
			byChip[s.pid] = append(byChip[s.pid], s)
		case d >= 0:
			txByDst[d] = append(txByDst[d], s)
		}
	}
	// Spans that compare equal are equal, so any sort gives one order.
	order := func(a, b span) int {
		if c := cmp.Compare(a.end, b.end); c != 0 {
			return c
		}
		if c := cmp.Compare(a.pid, b.pid); c != 0 {
			return c
		}
		if c := cmp.Compare(a.tid, b.tid); c != 0 {
			return c
		}
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	}
	for _, list := range byChip {
		slices.SortFunc(list, order)
	}
	for _, list := range txByDst {
		slices.SortFunc(list, order)
	}

	// Anchor: the span that sets the finish cycle (latest end; ties break
	// toward the lowest pid/tid/start/name).
	var anchor span
	found := false
	for _, s := range spans {
		if !found || later(s, anchor) {
			anchor, found = s, true
		}
	}
	if !found {
		return
	}

	// Backward greedy walk. The chain is bounded by the span count: every
	// hop moves strictly earlier in (end, start) order.
	var rev []PathSegment
	cur := anchor
	for steps := 0; steps <= len(spans)+1; steps++ {
		rev = append(rev, PathSegment{
			Kind: kindOf(cur), Name: cur.name, Pid: cur.pid, Tid: cur.tid,
			Start: cur.start, End: cur.end,
		})
		pred, ok := predecessor(byChip[cur.pid], txByDst[cur.pid], cur)
		if !ok {
			break
		}
		if gap := cur.start - pred.end; gap > 0 {
			rev = append(rev, PathSegment{
				Kind: SegWait, Name: "barrier-wait", Pid: cur.pid,
				Start: pred.end, End: cur.start,
			})
		}
		cur = pred
	}
	if cur.start > 0 {
		// Nothing precedes the first span: lead-in from cycle 0.
		rev = append(rev, PathSegment{
			Kind: SegWait, Name: "barrier-wait", Pid: cur.pid, Start: 0, End: cur.start,
		})
	}
	// Reverse to earliest-first and total the attributions.
	r.Path = make([]PathSegment, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		seg := rev[i]
		r.Path = append(r.Path, seg)
		switch seg.Kind {
		case SegCompute:
			r.ComputeCycles += seg.End - seg.Start
		case SegLink:
			r.LinkCycles += seg.End - seg.Start
		case SegWait:
			r.WaitCycles += seg.End - seg.Start
		}
	}
}

// presized returns an empty span list per key of counts, with room for
// its count.
func presized(counts map[int]int) map[int][]span {
	lists := make(map[int][]span, len(counts))
	for k, n := range counts {
		lists[k] = make([]span, 0, n)
	}
	return lists
}

// onChip and offPath are txDst's answers for a span that is not a
// transfer: chip-local work, or a foreign link-track span (e.g.
// core.RecordObservability) the path does not follow.
const (
	onChip  = -1
	offPath = -2
)

// txDst is the chip a transfer span delivers into, read from its
// "c2c.tx>dst" name, or onChip or offPath.
func txDst(s span) int {
	if s.tid < obs.TidLinkBase {
		return onChip
	}
	if !strings.HasPrefix(s.name, linkTxPrefix) {
		return offPath
	}
	dst := 0
	for _, ch := range s.name[len(linkTxPrefix):] {
		if ch < '0' || ch > '9' {
			return offPath
		}
		dst = dst*10 + int(ch-'0')
	}
	return dst
}

func kindOf(s span) SegKind {
	if s.tid >= obs.TidLinkBase {
		return SegLink
	}
	return SegCompute
}

// later reports whether a anchors the finish cycle ahead of b: latest
// end wins, ties toward the lowest (pid, tid, start, name).
func later(a, b span) bool {
	if a.end != b.end {
		return a.end > b.end
	}
	if a.pid != b.pid {
		return a.pid < b.pid
	}
	if a.tid != b.tid {
		return a.tid < b.tid
	}
	if a.start != b.start {
		return a.start < b.start
	}
	return a.name < b.name
}

// predecessor finds the latest span retiring at or before cur's start
// among cur's chip-local spans and the transfers into cur's chip. Link
// transfers win ties: the cross-chip arrival is the tighter dependence.
func predecessor(local, inbound []span, cur span) (span, bool) {
	lp, lok := lastEnding(local, cur)
	ip, iok := lastEnding(inbound, cur)
	switch {
	case lok && iok:
		if ip.end >= lp.end {
			return ip, true
		}
		return lp, true
	case iok:
		return ip, true
	case lok:
		return lp, true
	}
	return span{}, false
}

// lastEnding returns the last span in the (end-sorted) list ending at or
// before cur.start, excluding cur itself. Among equal ends the sort
// order's first is taken after skipping cur — deterministic either way.
func lastEnding(list []span, cur span) (span, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i].end > cur.start })
	for i--; i >= 0; i-- {
		if list[i] != cur {
			return list[i], true
		}
	}
	return span{}, false
}
