// Barrier-cadence time-series sampling: the flight-recorder feed.
//
// Sampling reuses the worker-invariant capture point checkpointing proved
// out: arming a cadence routes Run to the sequential executor, and the
// sample check fires only at the top of a heap pop (runHeap), when the
// heap minimum has crossed the cadence line and every send below it has
// been delivered into the mailboxes. At that instant counter values are a
// function of the instructions executed below the line (counter
// increments commute) and the mailbox queues ARE the in-flight link
// state, so the instantaneous queue-depth gauges set here — which would
// be batch-order-dependent anywhere else — are byte-identical across
// worker counts. Like checkpoint capture, sampling survives batching
// because runHeap clamps every batch horizon to the next armed cadence
// line before stepping any chip.
package runtime

import "repro/internal/obs"

// SetSeriesCadence arms (or, with 0, disarms) time-series sampling every
// `every` cycles. Samples land on the first heap barrier at or past
// each cadence multiple, plus one final sample at the finish cycle; Run
// takes the sequential executor whenever a cadence is armed.
// Negative cadences clamp to 0.
func (cl *Cluster) SetSeriesCadence(every int64) {
	if every < 0 {
		every = 0
	}
	cl.seriesEvery = every
	if every > 0 {
		cl.seriesNext = (cl.ckptFrom/every + 1) * every
	}
}

// sampleSeries snapshots the cluster's instantaneous occupancy gauges and
// then every registered counter and gauge into the recorder's series at
// heap-barrier cycle t. Only called from barrier code (and the run
// epilogue) — see the file comment for why that placement is load-bearing.
func (cl *Cluster) sampleSeries(t int64) {
	if cl.rec == nil {
		return
	}
	if cl.inflightG == nil {
		cl.inflightG = cl.rec.Gauge("runtime.inflight_vectors")
		cl.chipDepth = make([]*obs.Gauge, len(cl.posts))
		for i := range cl.posts {
			cl.chipDepth[i] = cl.rec.Gauge("runtime.mailbox_depth", obs.Li("chip", i))
		}
	}
	var total int64
	for i, mb := range cl.posts {
		var depth int64
		for qi := range mb.queues {
			depth += int64(mb.queues[qi].len())
		}
		cl.chipDepth[i].Set(depth)
		total += depth
	}
	cl.inflightG.Set(total)
	cl.rec.SampleSeries(t)
}
