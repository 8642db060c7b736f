package sampling

import "ksymmetry/internal/obs"

// The "sampling" scope counts the samplers' work (DESIGN.md §8). Picker
// tallies live in weightedPicker fields and flush once per budget loop;
// DFS steps reuse the walk's existing step counter — the per-draw and
// per-step paths never touch an atomic.
var (
	// obsSamples counts completed sampler runs, one per sample of a
	// Batch.
	obsSamples = obs.Default.Scope("sampling").Counter("samples")
	// obsRejections counts weighted-picker draws that landed on a cell
	// that had become ineligible since the table was built.
	obsRejections = obs.Default.Scope("sampling").Counter("picker_rejections")
	// obsRebuilds counts cumulative-weight table rebuilds forced by
	// pickerMaxRejects consecutive ineligible draws (the initial build is
	// not counted).
	obsRebuilds = obs.Default.Scope("sampling").Counter("picker_rebuilds")
	// obsDFSSteps counts quota-guided DFS steps (frame visits plus
	// restart scans) of the approximate sampler.
	obsDFSSteps = obs.Default.Scope("sampling").Counter("dfs_steps")
	// obsRestarts counts DFS restarts from an unvisited vertex after the
	// walk blocked.
	obsRestarts = obs.Default.Scope("sampling").Counter("dfs_restarts")
)
