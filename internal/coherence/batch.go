package coherence

import (
	"context"
	"sync"
	"sync/atomic"

	"memverify/internal/memory"
	"memverify/internal/obs"
	"memverify/internal/solver"
)

// SolveBatch is the one per-address driver: every entry point that
// decides more than one address (Verify, memverifyd's fleet shards, a
// caller's own burst of litmus-sized traces) fans its single-address
// VMC jobs out here. Each job climbs the escalation ladder (ladder.go)
// under the configured strategy and the Options budget, exactly as
// Verifier.SolveAddr does, so verdicts agree with a SolveAddr loop.
//
// What the batch pools or avoids, per job, relative to a looped
// Verifier.SolveAddr:
//
//   - Validate runs once per distinct *Execution, not once per job;
//   - the jobs over one execution are projected together, in a single
//     pass over its histories into pooled backing arrays, before the
//     fan-out — a loop re-scans the whole execution (validate + two
//     projection passes) once per address, so an A-address burst does
//     ~3A full scans where the batch does ~3;
//   - single-address executions are not projected at all (identity
//     projection: the instance aliases the execution's histories and
//     translates refs to themselves);
//   - the ladder's budget, the specialists' value-count map, the packed
//     memo layout and table, and every searcher buffer live in one
//     per-worker searchScratch for the whole batch.
//
// Parallelism: Config.Workers workers claim jobs in the caller's order
// (Workers <= 1 solves them inline, on the calling goroutine), and any
// job's exact search splits across Options.ParallelSearch workers when
// searchInstance engages the team (at least psearchMinOps operations
// and a shareable packed memo). The two multiply: a batch may run
// Workers × ParallelSearch search goroutines at once. Neither changes a
// verdict.

// BatchJob names one single-address VMC instance of a batch: decide
// coherence of Exec's operations at Addr.
type BatchJob struct {
	Exec *memory.Execution
	Addr memory.Addr
}

// BatchResult is the outcome of one BatchJob. Result is embedded by
// value so a batch of N jobs costs one slice allocation, not N.
type BatchResult struct {
	// Result is the solver outcome; meaningful only when Err is nil.
	// Result.Stats.Rung records the deciding ladder rung, and an
	// undecided StrategyResilient job has Result.Decided == false.
	Result Result
	// Checks lists the necessary-condition outcomes when the job reached
	// the last StrategyResilient rung.
	Checks []string
	// Err is the per-job error: validation failure or budget trip. One
	// job's error never aborts its siblings.
	Err error
}

// Report converts a successful batch outcome to the strategy-neutral
// AddrReport shape SolveAddr returns, the shape Verify and memverifyd
// merge per-address verdicts from. Call only when Err is nil.
func (br *BatchResult) Report(addr memory.Addr) *AddrReport {
	r := br.Result
	ar := &AddrReport{Addr: addr, Verdict: VerdictCoherent, Rung: Rung(r.Stats.Rung), Result: &r, Stats: r.Stats, Checks: br.Checks}
	switch {
	case !r.Decided:
		ar.Verdict, ar.Result = VerdictUnknown, nil
	case !r.Coherent:
		ar.Verdict = VerdictIncoherent
	}
	return ar
}

// set stores a ladder outcome in the pooled result slot.
func (br *BatchResult) set(ar *AddrReport) {
	br.Checks = ar.Checks
	if ar.Result != nil {
		br.Result = *ar.Result
		return
	}
	br.Result = Result{Algorithm: "resilient-unknown", Stats: ar.Stats}
}

// groupProjection holds the instances of every address a batch asks of
// one execution. All slices are carved from the backing arrays, which
// grow to the largest execution seen and are then reused verbatim.
type groupProjection struct {
	addrIdx map[memory.Addr]int
	slot    []int32 // dense addr -> index+1 table (0 = untracked)
	insts   []instance
	hist    []memory.History // A*P history headers
	backHdr [][]memory.Ref   // A*P back-map headers
	ops     []memory.Op      // backing for every projected op
	back    []memory.Ref     // backing for every back-map entry
	count   []int            // per (addr, proc) op counts, then fill cursors
}

// batchSlotMax bounds the dense address table: a group whose addresses
// all fall in [0, batchSlotMax) resolves each op's address with a slice
// index instead of a map lookup in the projection passes. 64 KiB once
// per pooled projection.
const batchSlotMax = 1 << 14

var groupPool = sync.Pool{New: func() any {
	return &groupProjection{addrIdx: make(map[memory.Addr]int)}
}}

// SolveBatch solves every job under the verifier's configured strategy
// and budget and returns one BatchResult per job in job order. The
// context is polled between jobs: cancellation marks the remaining
// jobs' Err and returns.
func (v *Verifier) SolveBatch(ctx context.Context, jobs []BatchJob) []BatchResult {
	out := make([]BatchResult, len(jobs))
	// Validate each distinct execution once, and project the ones that
	// several jobs share in one pass each. insts[i] is job i's grouped
	// instance; nil means the worker projects the job on its own.
	insts := make([]*instance, len(jobs))
	jobsOf := make(map[*memory.Execution][]int, min(len(jobs), 64))
	var execs []*memory.Execution
	for i := range jobs {
		e := jobs[i].Exec
		if _, ok := jobsOf[e]; !ok {
			execs = append(execs, e)
		}
		jobsOf[e] = append(jobsOf[e], i)
	}
	for _, e := range execs {
		idx := jobsOf[e]
		if err := e.Validate(); err != nil {
			for _, i := range idx {
				out[i].Err = err
			}
			continue
		}
		if len(idx) > 1 {
			gp := groupPool.Get().(*groupProjection)
			defer groupPool.Put(gp)
			gp.project(e, jobs, idx)
			for _, i := range idx {
				insts[i] = &gp.insts[gp.addrIdx[jobs[i].Addr]]
			}
		}
	}

	var next atomic.Int64
	work := func(ctx context.Context) {
		sc := scratchPool.Get().(*searchScratch)
		defer scratchPool.Put(sc)
		var own instance
		for {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			job, br, inst := jobs[i], &out[i], insts[i]
			if br.Err != nil {
				continue
			}
			if e := solver.Interrupted(ctx); e != nil {
				br.Err = withAddr(e, job.Addr)
				continue
			}
			if inst == nil {
				own.load(job.Exec, job.Addr)
				inst = &own
			}
			ar, err := v.ladder(ctx, job.Exec, inst, v.cfg.Options, sc)
			if err != nil {
				br.Err = err
				continue
			}
			br.set(&ar)
		}
	}
	workers := min(v.cfg.Workers, len(jobs))
	if workers <= 1 {
		work(ctx)
		return out
	}
	tr := obs.TracerFrom(ctx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, wctx := tr.BeginWorker(ctx, "verify-worker", w)
			defer sp.EndWorker(w, "done")
			work(wctx)
		}()
	}
	wg.Wait()
	return out
}

// growSlice returns s resized to n, reusing its backing array when the
// capacity allows.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// project fills gp.insts with one instance per distinct address the
// jobs at jobIdx ask of exec, projecting all of them in a single pass
// over the execution's histories. Two counting+filling passes replace
// the per-address projections a loop would do; every slice is carved
// out of reusable backing arrays, so a group costs O(1) allocations
// once the pool is warm.
func (gp *groupProjection) project(exec *memory.Execution, jobs []BatchJob, jobIdx []int) {
	clear(gp.addrIdx)
	na := 0
	dense := true
	for _, i := range jobIdx {
		addr := jobs[i].Addr
		if _, ok := gp.addrIdx[addr]; !ok {
			gp.addrIdx[addr] = na
			na++
			if addr < 0 || addr >= batchSlotMax {
				dense = false
			}
		}
	}
	// The dense table turns the per-op address lookup of both passes
	// into a slice index. Slots are set for the group's addresses only
	// and cleared the same way, so a group costs O(addresses) table
	// maintenance regardless of batchSlotMax.
	if dense {
		if gp.slot == nil {
			gp.slot = make([]int32, batchSlotMax)
		}
		for addr, idx := range gp.addrIdx {
			gp.slot[addr] = int32(idx) + 1
		}
		defer func() {
			for addr := range gp.addrIdx {
				gp.slot[addr] = 0
			}
		}()
	}
	np := len(exec.Histories)

	// Pass 1: count projected ops per (address, process).
	gp.count = growSlice(gp.count, 2*na*np)
	counts, cursors := gp.count[:na*np], gp.count[na*np:]
	clear(counts)
	total := 0
	for p, h := range exec.Histories {
		if dense {
			slot := gp.slot
			for _, o := range h {
				if !o.IsMemory() {
					continue
				}
				if a := o.Addr; a >= 0 && a < batchSlotMax && slot[a] != 0 {
					counts[int(slot[a]-1)*np+p]++
					total++
				}
			}
			continue
		}
		for _, o := range h {
			if !o.IsMemory() {
				continue
			}
			if a, ok := gp.addrIdx[o.Addr]; ok {
				counts[a*np+p]++
				total++
			}
		}
	}

	// Carve the per-(address, process) sub-histories and back-maps out
	// of two flat backing arrays, recording each slot's start cursor.
	gp.ops = growSlice(gp.ops, total)
	gp.back = growSlice(gp.back, total)
	gp.hist = growSlice(gp.hist, na*np)
	gp.backHdr = growSlice(gp.backHdr, na*np)
	off := 0
	for s := range counts {
		n := counts[s]
		gp.hist[s] = memory.History(gp.ops[off : off+n : off+n])
		gp.backHdr[s] = gp.back[off : off+n : off+n]
		cursors[s] = off
		off += n
	}

	// Pass 2: fill.
	for p, h := range exec.Histories {
		if dense {
			slot := gp.slot
			for i, o := range h {
				if !o.IsMemory() {
					continue
				}
				a := o.Addr
				if a < 0 || a >= batchSlotMax || slot[a] == 0 {
					continue
				}
				s := int(slot[a]-1)*np + p
				c := cursors[s]
				gp.ops[c] = o
				gp.back[c] = memory.Ref{Proc: p, Index: i}
				cursors[s] = c + 1
			}
			continue
		}
		for i, o := range h {
			if !o.IsMemory() {
				continue
			}
			a, ok := gp.addrIdx[o.Addr]
			if !ok {
				continue
			}
			s := a*np + p
			c := cursors[s]
			gp.ops[c] = o
			gp.back[c] = memory.Ref{Proc: p, Index: i}
			cursors[s] = c + 1
		}
	}

	// Assemble the instances. gInsts is sized before any instance binds
	// its init/final pointers, so they stay valid for the group.
	gp.insts = growSlice(gp.insts, na)
	for addr, a := range gp.addrIdx {
		nops := 0
		for s := a * np; s < (a+1)*np; s++ {
			nops += counts[s]
		}
		gp.insts[a] = instance{
			addr:    addr,
			hist:    gp.hist[a*np : (a+1)*np],
			backIdx: gp.backHdr[a*np : (a+1)*np],
			nops:    nops,
		}
		gp.insts[a].bind(exec, addr)
	}
}
