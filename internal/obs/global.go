package obs

import "sync/atomic"

// The process-global default recorder. Components attach it at
// construction time (tsp.New, runtime.New, c2c.New, ...) so a CLI flag
// like `tspsim -trace out.json` can observe every experiment without
// threading a recorder through each workload's signature.
//
// The global is an atomic pointer, so a read never races an install, on
// whichever goroutine it happens. The Recorder it points to has one
// writer (see the package doc). When no recorder is installed, Get
// returns nil and every instrumented path degrades to a nil-check.
var active atomic.Pointer[Recorder]

// Set installs (or, with nil, removes) the process-global recorder.
func Set(r *Recorder) { active.Store(r) }

// Get returns the process-global recorder, or nil when observability is
// off.
func Get() *Recorder { return active.Load() }
