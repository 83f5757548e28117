package traffic

// SimScratch pools the simulation engines' run-to-run state: the
// water-filling allocator, the epoch engine's flow table, path arena
// and arrival buffer, the event engine's whole link/flow state, and
// the per-worker solver heaps. A fresh Simulate call builds all of this
// from nothing and lets it die with the run; a caller that simulates
// repeatedly — a sweep, a policy search, the steady-state benchmarks —
// passes one SimScratch through WithSimScratch and every buffer keeps
// its high-water capacity across runs, so a run whose demands stay
// under a predecessor's allocates nothing at all.
//
// The scratch carries capacity, never results: each run truncates and
// restamps what it reuses, so reports are bit-identical with and
// without a shared scratch (pinned by TestSimScratchReuseIdentical).
// The zero value is ready. Not safe for concurrent use — one scratch
// serves one Simulate call at a time.
type SimScratch struct {
	wf      *wfState
	flows   flowTable
	paths   pathArena
	pend    []pending
	ev      *eventSim
	solvers []*shareHeap
}

// NewSimScratch returns an empty scratch ready to thread through
// Simulate calls via WithSimScratch.
func NewSimScratch() *SimScratch { return &SimScratch{} }

// WithSimScratch reuses sc's pooled buffers for the run. See
// SimScratch for the contract.
func WithSimScratch(sc *SimScratch) SimOption {
	return func(cfg *simConfig) { cfg.scratch = sc }
}
