package obs

import "sync/atomic"

// The process-global recorder. No library code reads it apart from one
// shim in runtime.New, which hands it to the new cluster's SetRecorder:
// bench/tspbench is the only program that installs it (it calls Set
// before runtime.New). Every other owner passes its recorder down
// explicitly. ROADMAP item 8a moves the bench to Cluster.SetRecorder and
// deletes this file and the shim.
//
// The global is an atomic pointer, so a read never races an install, on
// whichever goroutine it happens. The Recorder it points to has one
// writer (see the package doc). When no recorder is installed, Get
// returns nil.
var active atomic.Pointer[Recorder]

// Set installs (or, with nil, removes) the process-global recorder.
func Set(r *Recorder) { active.Store(r) }

// Get returns the process-global recorder, or nil when none is installed.
func Get() *Recorder { return active.Load() }
