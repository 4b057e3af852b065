package coherence

import (
	"context"
	"sync"
	"sync/atomic"

	"memverify/internal/memory"
	"memverify/internal/solver"
)

// SolveBatch is the vectorized multi-instance driver: thousands of
// small single-address VMC instances solved with pooled scratch and
// (near) zero cross-instance allocation. It exists for workloads shaped
// like memverifyd's cache-miss bursts — many independent litmus-sized
// traces, each cheap to solve, where a loop over Verifier.SolveAddr spends
// more time on per-call ceremony (double validation, per-address
// projection, scratch and layout construction) than on the solves themselves.
//
// What the batch path pools or avoids, per job, relative to a looped
// Verifier.SolveAddr:
//
//   - Validate runs once per distinct *Execution, not once per call;
//   - jobs over one execution are grouped, and ALL of the group's
//     addresses are projected in a single pass over the histories into
//     pooled backing arrays — a loop re-scans the whole execution
//     (validate + two projection passes) once per address, so an
//     A-address burst does ~3A full scans where the batch does ~3;
//   - single-address executions are not projected at all (identity
//     projection: the instance aliases the execution's histories and
//     translates refs to themselves);
//   - the ladder's budget, the specialists' value-count map, the packed
//     memo layout and table, and every searcher buffer live in one
//     per-worker searchScratch for the whole batch.
//
// Verdict parity with the looped path is exact: each job climbs the
// same escalation ladder (ladder.go) as SolveAddr, for every strategy,
// on the same instance under the same Options budget. Each instance is
// solved sequentially — batch throughput comes from eliminating
// overhead and from fanning jobs across Config.Workers, not from
// Options.ParallelSearch, which is ignored here (litmus-sized instances
// are below any useful frontier split).

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
// AddrReport shape SolveAddr returns, so batched and individually
// sharded addresses merge through one code path (memverifyd does this).
// Call only when Err is nil.
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

// batchScratch is one worker's reusable solve state: the ladder's
// searchScratch plus the grouped projection of the current group.
type batchScratch struct {
	searchScratch
	inst instance // the current ungrouped job's projection

	// Grouped-projection state: one pass over an execution's histories
	// fills instances for every address its group requests. All slices
	// are carved from the g* backing arrays, which grow to the largest
	// group seen and are then reused verbatim.
	gAddrIdx map[memory.Addr]int
	gSlot    []int32 // dense addr -> index+1 table (0 = untracked)
	gInsts   []instance
	gHist    []memory.History // A*P history headers
	gBackHdr [][]memory.Ref   // A*P back-map headers
	gOps     []memory.Op      // backing for every projected op
	gBack    []memory.Ref     // backing for every back-map entry
	gCount   []int            // per (addr, proc) op counts, then fill cursors
}

// batchSlotMax bounds the dense address table: a group whose addresses
// all fall in [0, batchSlotMax) resolves each op's address with a slice
// index instead of a map lookup in the projection passes. 64 KiB once
// per pooled scratch.
const batchSlotMax = 1 << 14

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{
		searchScratch: searchScratch{counts: make(map[memory.Value]int)},
		gAddrIdx:      make(map[memory.Addr]int),
	}
}}

// SolveBatch solves every job under the verifier's configured strategy
// and budget, fanning jobs across Config.Workers pooled workers, and
// returns one BatchResult per job in job order. The context is polled
// between jobs: cancellation marks the remaining jobs' Err and returns.
func (v *Verifier) SolveBatch(ctx context.Context, jobs []BatchJob) []BatchResult {
	out := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}

	// Group jobs by execution. A group is the unit of work a worker
	// claims: it validates the execution once and projects every
	// requested address in one pass over the histories.
	groupOf := make(map[*memory.Execution]int, min(len(jobs), 64))
	var groups []batchGroup
	for i := range jobs {
		g, ok := groupOf[jobs[i].Exec]
		if !ok {
			g = len(groups)
			groupOf[jobs[i].Exec] = g
			groups = append(groups, batchGroup{exec: jobs[i].Exec})
		}
		groups[g].jobIdx = append(groups[g].jobIdx, i)
	}

	workers := v.cfg.Workers
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers < 1 {
		workers = 1
	}

	var nextGroup atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs := batchScratchPool.Get().(*batchScratch)
			defer batchScratchPool.Put(bs)
			for {
				gi := int(nextGroup.Add(1)) - 1
				if gi >= len(groups) {
					return
				}
				v.solveGroup(ctx, bs, jobs, &groups[gi], out)
			}
		}()
	}
	wg.Wait()
	return out
}

// batchGroup is every job of one batch that shares an execution.
type batchGroup struct {
	exec   *memory.Execution
	jobIdx []int
}

// solveGroup validates the group's execution once, then runs the ladder
// on each of its jobs, using the grouped single-pass projection when
// more than one job shares the execution.
func (v *Verifier) solveGroup(ctx context.Context, bs *batchScratch, jobs []BatchJob, g *batchGroup, out []BatchResult) {
	if err := g.exec.Validate(); err != nil {
		for _, i := range g.jobIdx {
			out[i].Err = err
		}
		return
	}
	grouped := len(g.jobIdx) > 1
	if grouped {
		bs.groupProject(g.exec, jobs, g.jobIdx)
	}
	for _, i := range g.jobIdx {
		job, br := jobs[i], &out[i]
		if e := solver.Interrupted(ctx); e != nil {
			br.Err = withAddr(e, job.Addr)
			continue
		}
		inst := &bs.inst
		if grouped {
			inst = &bs.gInsts[bs.gAddrIdx[job.Addr]]
		} else {
			inst.load(job.Exec, job.Addr)
		}
		ar, err := v.ladder(ctx, job.Exec, inst, v.cfg.Options, &bs.searchScratch)
		if err != nil {
			br.Err = err
			continue
		}
		br.set(&ar)
	}
}

// growSlice returns s resized to n, reusing its backing array when the
// capacity allows.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// groupProject fills bs.gInsts with one instance per distinct address
// in the group, projecting all of them in a single pass over the
// execution's histories. Two counting+filling passes replace the
// len(addrs) per-address projections a loop would do; every slice is carved out of reusable backing arrays,
// so a group costs O(1) allocations once the pool is warm.
func (bs *batchScratch) groupProject(exec *memory.Execution, jobs []BatchJob, jobIdx []int) {
	clear(bs.gAddrIdx)
	na := 0
	dense := true
	for _, i := range jobIdx {
		addr := jobs[i].Addr
		if _, ok := bs.gAddrIdx[addr]; !ok {
			bs.gAddrIdx[addr] = na
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
		if bs.gSlot == nil {
			bs.gSlot = make([]int32, batchSlotMax)
		}
		for addr, idx := range bs.gAddrIdx {
			bs.gSlot[addr] = int32(idx) + 1
		}
		defer func() {
			for addr := range bs.gAddrIdx {
				bs.gSlot[addr] = 0
			}
		}()
	}
	np := len(exec.Histories)

	// Pass 1: count projected ops per (address, process).
	bs.gCount = growSlice(bs.gCount, 2*na*np)
	counts, cursors := bs.gCount[:na*np], bs.gCount[na*np:]
	clear(counts)
	total := 0
	for p, h := range exec.Histories {
		if dense {
			slot := bs.gSlot
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
			if a, ok := bs.gAddrIdx[o.Addr]; ok {
				counts[a*np+p]++
				total++
			}
		}
	}

	// Carve the per-(address, process) sub-histories and back-maps out
	// of two flat backing arrays, recording each slot's start cursor.
	bs.gOps = growSlice(bs.gOps, total)
	bs.gBack = growSlice(bs.gBack, total)
	bs.gHist = growSlice(bs.gHist, na*np)
	bs.gBackHdr = growSlice(bs.gBackHdr, na*np)
	off := 0
	for s := range counts {
		n := counts[s]
		bs.gHist[s] = memory.History(bs.gOps[off : off+n : off+n])
		bs.gBackHdr[s] = bs.gBack[off : off+n : off+n]
		cursors[s] = off
		off += n
	}

	// Pass 2: fill.
	for p, h := range exec.Histories {
		if dense {
			slot := bs.gSlot
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
				bs.gOps[c] = o
				bs.gBack[c] = memory.Ref{Proc: p, Index: i}
				cursors[s] = c + 1
			}
			continue
		}
		for i, o := range h {
			if !o.IsMemory() {
				continue
			}
			a, ok := bs.gAddrIdx[o.Addr]
			if !ok {
				continue
			}
			s := a*np + p
			c := cursors[s]
			bs.gOps[c] = o
			bs.gBack[c] = memory.Ref{Proc: p, Index: i}
			cursors[s] = c + 1
		}
	}

	// Assemble the instances. gInsts is sized before any instance binds
	// its init/final pointers, so they stay valid for the group.
	bs.gInsts = growSlice(bs.gInsts, na)
	for addr, a := range bs.gAddrIdx {
		nops := 0
		for s := a * np; s < (a+1)*np; s++ {
			nops += counts[s]
		}
		bs.gInsts[a] = instance{
			addr:    addr,
			hist:    bs.gHist[a*np : (a+1)*np],
			backIdx: bs.gBackHdr[a*np : (a+1)*np],
			nops:    nops,
		}
		bs.gInsts[a].bind(exec, addr)
	}
}
