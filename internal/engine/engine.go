// Package engine orchestrates multi-cell simulation runs: it executes N
// independent cell simulations (core.Run) concurrently on a bounded worker
// pool and streams their results back in submission order. The paper
// analyzes eight 2019 cells plus the 2011 cell; the engine is the layer
// that makes that suite — and larger parameter sweeps — scale with the
// hardware instead of running one cell at a time.
//
// # Determinism contract
//
// A cell simulation is a pure function of (profile, horizon, seed): each
// cell owns its private kernel and rng streams, so parallelism changes
// only wall-clock time, never a single trace row. The engine makes the
// two conventions that guarantee cross-cell independence explicit instead
// of caller folklore:
//
//   - Seeds: cell i of a run rooted at seed R simulates with
//     DeriveSeed(R, i), a splitmix64-finalized mix. Same root ⇒ same
//     per-cell seeds ⇒ byte-identical traces at any Parallelism.
//   - ID spaces: cell i offsets its collection IDs by IDBase(i), giving
//     every cell a disjoint 2³² ID range so merged traces never collide.
//
// Sinks are per-cell and driven by that cell's goroutine; give every
// spec its own sink instance rather than sharing one, as
// experiments.RunCells, the pipeline every runner uses, does.
package engine

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Spec is one cell simulation in a multi-cell run. Cells are identified
// by spec index in results and by Profile.Name in traces.
type Spec struct {
	Profile *workload.CellProfile
	Options core.Options
}

// Options configures the run.
type Options struct {
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS. It has
	// no effect on simulation output, only on wall-clock time.
	Parallelism int
	// OnResult, when set, is invoked once per cell in spec order (index
	// 0, 1, 2, ...) as results become available, enabling streaming
	// consumption ahead of Run returning. Calls are serialized; a slow
	// callback backpressures result delivery but not simulation.
	OnResult func(index int, res *core.CellResult)
	// OnStart, when set, is invoked as a worker begins simulating a cell —
	// the hook progress reporters count in-flight cells with. Unlike
	// OnResult it is NOT serialized or ordered: calls arrive concurrently
	// from worker goroutines, so the callback must be safe for concurrent
	// use and should return quickly.
	OnStart func(index int)
}

// DeriveSeed maps a run's root seed and a cell index to the cell's
// simulation seed. It is the engine's published seed-splitting contract:
// stable across releases, collision-resistant across indices, and
// independent of execution order.
func DeriveSeed(root uint64, cell int) uint64 {
	x := root + 0x9e3779b97f4a7c15*uint64(cell+1)
	// splitmix64 finalizer, as in internal/rng.
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// IDBase returns cell i's collection-ID offset: disjoint 2³² ranges so a
// merged multi-cell trace has globally unique collection IDs.
func IDBase(cell int) trace.CollectionID {
	return trace.CollectionID(cell) << 32
}

// DeriveGridSeed maps a sweep's root seed and a 2-D grid coordinate
// (run, cell) to that point's simulation seed: replicate run's root
// derives from the sweep root, and cell seeds derive from the replicate
// root exactly as single-run suites derive theirs. The result depends
// only on (root, run, cell) — never on how many variants or runs the
// sweep contains — so every variant of replicate run simulates each cell
// against the same stochastic world (common random numbers), which is
// what makes cross-variant differences at a fixed seed meaningful.
func DeriveGridSeed(root uint64, run, cell int) uint64 {
	return DeriveSeed(DeriveSeed(root, run), cell)
}

// NewGridSpec builds the spec for one point of a seed × variant × cell
// sweep grid: the simulation seed comes from DeriveGridSeed(root, run,
// cell) while the collection-ID space comes from the point's flat grid
// index, keeping every grid point's IDs disjoint even though variants
// share seeds.
func NewGridSpec(run, cell, flat int, p *workload.CellProfile, base core.Options, root uint64) Spec {
	base.Seed = DeriveGridSeed(root, run, cell)
	base.IDBase = IDBase(flat)
	return Spec{Profile: p, Options: base}
}

// NewSpec builds the spec for cell index i of a run rooted at seed root,
// applying the engine's seed and ID-space contracts to base options.
func NewSpec(i int, p *workload.CellProfile, base core.Options, root uint64) Spec {
	base.Seed = DeriveSeed(root, i)
	base.IDBase = IDBase(i)
	return Spec{Profile: p, Options: base}
}

// AttachSinks appends the sink built by make(i) to each spec's
// ExtraSinks, in place; a nil sink leaves that spec unchanged. The
// runners attach sinks through experiments.RunCells; AttachSinks is kept
// only because the benchmark harness under bench/, which is frozen,
// calls it.
func AttachSinks(specs []Spec, make func(i int) trace.Sink) {
	for i := range specs {
		if s := make(i); s != nil {
			specs[i].Options.ExtraSinks = append(specs[i].Options.ExtraSinks, s)
		}
	}
}

// Run simulates every spec and returns results indexed like specs. With
// Parallelism > 1 the cells run concurrently; results (and OnResult
// callbacks) are still delivered in spec order.
func Run(specs []Spec, opts Options) []*core.CellResult {
	return run(len(specs), func(i int) Spec { return specs[i] }, opts, true)
}

// RunStream is Run for fleets too large to materialize: specs are built
// lazily by spec(i) as workers pick up cell indices, and results are
// released as soon as OnResult returns instead of being retained. With
// streaming sinks only (no trace.MemTrace), the state held at once is
// the cells started and not yet delivered: the Parallelism running
// cells plus the finished ones waiting for in-order delivery behind the
// slowest undelivered cell. That backlog grows with how unequal the
// cells are, not with n, but Parallelism does not bound it: a sweep at
// Parallelism 4 held 16 reducers where one grid point's 9 plus 4
// running cells would be 13. The pool has no start window (a cap on
// how far past the first undelivered cell a worker may start): a window
// of Parallelism cells cost sweeps and fleets 17–18% wall time.
// Everything else matches Run: in-order OnResult delivery, concurrent
// OnStart, and byte-identical output at any Parallelism. spec must be
// safe to call concurrently for distinct indices (each index is
// requested exactly once).
func RunStream(n int, spec func(i int) Spec, opts Options) {
	run(n, spec, opts, false)
}

// run is the shared pool: simulate cell indices [0, n) built by spec,
// delivering results in index order. keep retains results for Run's
// return value; RunStream drops each result after its callback so the
// undelivered buffer is the only retained state.
func run(n int, spec func(i int) Spec, opts Options, keep bool) []*core.CellResult {
	results := make([]*core.CellResult, n)
	if n == 0 {
		return results
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}

	var (
		mu         sync.Mutex
		next       int  // first index not yet delivered to OnResult
		delivering bool // a worker is draining callbacks outside the lock
	)
	// deliver records a finished cell and drains in-order OnResult
	// callbacks. Callbacks run outside the mutex so a slow consumer
	// stalls only the one worker currently delivering, never the pool:
	// other workers store their result and go back to simulating.
	deliver := func(i int, res *core.CellResult) {
		mu.Lock()
		results[i] = res
		if delivering {
			mu.Unlock()
			return
		}
		delivering = true
		for next < n && results[next] != nil {
			idx, r := next, results[next]
			if !keep {
				results[idx] = nil
			}
			next++
			mu.Unlock()
			if opts.OnResult != nil {
				opts.OnResult(idx, r)
			}
			mu.Lock()
		}
		delivering = false
		mu.Unlock()
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if opts.OnStart != nil {
					opts.OnStart(i)
				}
				s := spec(i)
				deliver(i, core.Run(s.Profile, s.Options))
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return results
}
