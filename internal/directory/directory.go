// Package directory is a directory-based cache-coherence simulator: a
// NUMA-style multiprocessor where each address has a home node whose
// directory entry tracks the owner and sharers of the line, and
// coherence actions are directed invalidations/fetches instead of bus
// snoops. It complements the bus-based internal/mesi simulator — the
// paper's motivation names "distributed memory controllers" among the
// complexity drivers (§1) — and brings its own characteristic fault
// modes: a directory that forgets a sharer, fetches from the wrong
// place, or leaks an entry.
//
// Transactions are atomic (the home serializes requests per address), so
// a fault-free system produces sequentially consistent executions; the
// simulator records per-processor histories with the values actually
// observed, for the verifiers to judge.
package directory

import (
	"fmt"

	"memverify/internal/memory"
	"memverify/internal/obs"
)

// dirState is the directory's view of a line.
type dirState uint8

const (
	dirInvalid dirState = iota // no cached copies
	dirShared                  // one or more clean copies, memory current
	dirOwned                   // exactly one dirty copy at owner
)

// entry is one directory entry.
type entry struct {
	state   dirState
	owner   int
	sharers map[int]bool
}

// cacheLine is a node's private copy of an address (full-map cache: the
// simulator models capacity as unbounded, keeping the protocol — not
// replacement — the subject; evictions are modeled explicitly via
// Evict).
type cacheLine struct {
	valid bool
	dirty bool
	value memory.Value
}

// Config parameterizes the system.
type Config struct {
	// Nodes is the number of processor+cache+memory-slice nodes.
	Nodes int
	// Faults enables protocol error injection.
	Faults *Faults
	// Tracer, when non-nil, receives a directory event for every
	// protocol transaction (fetch, inval, wb).
	Tracer *obs.Tracer
}

// Stats counts protocol activity.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Fetches       uint64 // owner-to-requester transfers
	Invalidations uint64
	Writebacks    uint64
	FaultsFired   int
}

// Counters implements obs.CounterSet, so cmd/simtrace prints MESI and
// directory stats through one code path.
func (st Stats) Counters() []obs.StatCounter {
	return []obs.StatCounter{
		{Name: "hits", Value: st.Hits},
		{Name: "misses", Value: st.Misses},
		{Name: "fetch", Value: st.Fetches},
		{Name: "inval", Value: st.Invalidations},
		{Name: "wb", Value: st.Writebacks},
		{Name: "faults", Value: uint64(st.FaultsFired)},
	}
}

// System is the simulated directory-protocol multiprocessor.
type System struct {
	cfg     Config
	caches  []map[memory.Addr]*cacheLine
	dir     map[memory.Addr]*entry
	mem     map[memory.Addr]memory.Value
	init    map[memory.Addr]memory.Value
	hist    []memory.History
	arrival []memory.Ref
	stats   Stats
	faults  *Faults
	tr      *obs.Tracer
}

// New builds a system; memory reads as zero on first touch.
func New(cfg Config) *System {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	s := &System{
		cfg:    cfg,
		dir:    make(map[memory.Addr]*entry),
		mem:    make(map[memory.Addr]memory.Value),
		init:   make(map[memory.Addr]memory.Value),
		hist:   make([]memory.History, cfg.Nodes),
		faults: cfg.Faults,
		tr:     cfg.Tracer,
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.caches = append(s.caches, make(map[memory.Addr]*cacheLine))
	}
	return s
}

// Stats returns the counters.
func (s *System) Stats() Stats { return s.stats }

// SetInitial presets memory contents.
func (s *System) SetInitial(a memory.Addr, v memory.Value) {
	s.mem[a] = v
	s.init[a] = v
}

func (s *System) memRead(a memory.Addr) memory.Value {
	v, ok := s.mem[a]
	if !ok {
		s.mem[a] = 0
		s.init[a] = 0
	}
	return v
}

func (s *System) entryOf(a memory.Addr) *entry {
	e, ok := s.dir[a]
	if !ok {
		e = &entry{state: dirInvalid, sharers: make(map[int]bool)}
		s.dir[a] = e
	}
	return e
}

func (s *System) lineOf(node int, a memory.Addr) *cacheLine {
	l, ok := s.caches[node][a]
	if !ok {
		l = &cacheLine{}
		s.caches[node][a] = l
	}
	return l
}

// fetchCurrent returns the current value of a, pulling it from the owner
// when the directory says the line is dirty (writing memory back, per a
// MSI-style owned-to-shared downgrade).
func (s *System) fetchCurrent(a memory.Addr, e *entry) memory.Value {
	if e.state == dirOwned {
		s.stats.Fetches++
		s.tr.Directory("fetch", e.owner, int64(a), 0)
		if s.faults.fire(FaultWrongSource) {
			s.stats.FaultsFired++
			// The request is mis-routed and served from stale memory;
			// the owner is silently downgraded without a writeback.
			owner := s.lineOf(e.owner, a)
			owner.dirty = false
			return s.memRead(a)
		}
		owner := s.lineOf(e.owner, a)
		s.stats.Writebacks++
		s.tr.Directory("wb", e.owner, int64(a), int64(owner.value))
		s.mem[a] = owner.value
		owner.dirty = false
		return owner.value
	}
	return s.memRead(a)
}

// invalidateSharers sends invalidations to every sharer except skip, in
// node order: a fault may fire at each one, so the order decides which
// sharer a seeded fault forgets.
func (s *System) invalidateSharers(a memory.Addr, e *entry, skip int) {
	for node := 0; node < s.cfg.Nodes; node++ {
		if node == skip || !e.sharers[node] {
			continue
		}
		s.stats.Invalidations++
		s.tr.Directory("inval", node, int64(a), 0)
		if s.faults.fire(FaultForgetSharer) {
			s.stats.FaultsFired++
			// The directory's sharer list was corrupted: this sharer
			// never receives the invalidation and keeps a stale copy,
			// but the directory forgets it anyway.
			delete(e.sharers, node)
			continue
		}
		s.lineOf(node, a).valid = false
		delete(e.sharers, node)
	}
	if e.state == dirOwned && e.owner != skip {
		s.stats.Invalidations++
		s.tr.Directory("inval", e.owner, int64(a), 0)
		owner := s.lineOf(e.owner, a)
		if owner.dirty {
			s.stats.Writebacks++
			s.tr.Directory("wb", e.owner, int64(a), int64(owner.value))
			s.mem[a] = owner.value
		}
		if s.faults.fire(FaultForgetSharer) {
			s.stats.FaultsFired++
		} else {
			owner.valid = false
		}
	}
}

// Read performs a load by node, recording the observed value.
func (s *System) Read(node int, a memory.Addr) memory.Value {
	l := s.lineOf(node, a)
	if l.valid {
		s.stats.Hits++
		s.record(node, memory.R(a, l.value))
		return l.value
	}
	s.stats.Misses++
	e := s.entryOf(a)
	v := s.fetchCurrent(a, e)
	if e.state == dirOwned {
		// Downgrade: owner becomes a sharer.
		e.sharers[e.owner] = true
		e.owner = -1
	}
	e.state = dirShared
	e.sharers[node] = true
	l.valid, l.dirty, l.value = true, false, v
	s.record(node, memory.R(a, v))
	return v
}

// Write performs a store by node.
func (s *System) Write(node int, a memory.Addr, v memory.Value) {
	s.obtainOwnership(node, a)
	l := s.lineOf(node, a)
	if s.faults.fire(FaultDropStore) {
		s.stats.FaultsFired++
	} else {
		l.value = v
	}
	l.dirty = true
	s.record(node, memory.W(a, v))
}

// RMW performs an atomic read-modify-write, returning the observed old
// value.
func (s *System) RMW(node int, a memory.Addr, new memory.Value) memory.Value {
	s.obtainOwnership(node, a)
	l := s.lineOf(node, a)
	old := l.value
	if s.faults.fire(FaultDropStore) {
		s.stats.FaultsFired++
	} else {
		l.value = new
	}
	l.dirty = true
	s.record(node, memory.RW(a, old, new))
	return old
}

// obtainOwnership brings the line to node in exclusive dirty-capable
// state, invalidating all other copies.
func (s *System) obtainOwnership(node int, a memory.Addr) {
	e := s.entryOf(a)
	l := s.lineOf(node, a)
	if e.state == dirOwned && e.owner == node && l.valid {
		s.stats.Hits++
		return
	}
	s.stats.Misses++
	cur := s.fetchCurrent(a, e)
	s.invalidateSharers(a, e, node)
	if !l.valid {
		l.value = cur
	}
	if s.faults.fire(FaultLeakEntry) {
		s.stats.FaultsFired++
		// The directory loses the update: it still believes the line is
		// uncached, so a later writer will not invalidate this copy.
		e.state = dirInvalid
		e.owner = -1
		e.sharers = make(map[int]bool)
	} else {
		e.state = dirOwned
		e.owner = node
		e.sharers = map[int]bool{}
	}
	l.valid = true
}

// Evict drops node's copy of a (writing back when dirty), modeling a
// capacity eviction.
func (s *System) Evict(node int, a memory.Addr) {
	l := s.lineOf(node, a)
	if !l.valid {
		return
	}
	e := s.entryOf(a)
	if l.dirty {
		s.stats.Writebacks++
		s.tr.Directory("wb", node, int64(a), int64(l.value))
		if s.faults.fire(FaultLoseWriteback) {
			s.stats.FaultsFired++
		} else {
			s.mem[a] = l.value
		}
	}
	l.valid, l.dirty = false, false
	delete(e.sharers, node)
	if e.state == dirOwned && e.owner == node {
		e.state = dirInvalid
		e.owner = -1
	} else if e.state == dirShared && len(e.sharers) == 0 {
		e.state = dirInvalid
	}
}

func (s *System) record(node int, o memory.Op) {
	s.arrival = append(s.arrival, memory.Ref{Proc: node, Index: len(s.hist[node])})
	s.hist[node] = append(s.hist[node], o)
}

// Arrival returns the global completion order of all recorded
// operations — the event stream an online monitor consumes.
func (s *System) Arrival() []memory.Ref {
	return append([]memory.Ref(nil), s.arrival...)
}

// FlushAll writes every dirty copy back.
func (s *System) FlushAll() {
	for node := range s.caches {
		for a, l := range s.caches[node] {
			if l.valid && l.dirty {
				s.stats.Writebacks++
				s.mem[a] = l.value
				l.dirty = false
			}
			l.valid = false
		}
	}
	for _, e := range s.dir {
		e.state = dirInvalid
		e.owner = -1
		e.sharers = make(map[int]bool)
	}
}

// Execution returns the recorded trace (with final values when flush).
func (s *System) Execution(flush bool) *memory.Execution {
	exec := &memory.Execution{Histories: append([]memory.History(nil), s.hist...)}
	for a, v := range s.init {
		exec.SetInitial(a, v)
	}
	if flush {
		s.FlushAll()
		for a, v := range s.mem {
			exec.SetFinal(a, v)
		}
	}
	return exec
}

// CheckInvariants validates the directory/cache agreement: an Owned
// entry has exactly one valid dirty copy (at the owner) and no other
// valid copies; a Shared entry has no dirty copies and its sharer set
// matches the valid copies; an Invalid entry has no valid copies.
// Fault injection may legitimately break these.
func (s *System) CheckInvariants() error {
	for a, e := range s.dir {
		var validNodes []int
		dirtyCount := 0
		for node := range s.caches {
			l, ok := s.caches[node][a]
			if !ok || !l.valid {
				continue
			}
			validNodes = append(validNodes, node)
			if l.dirty {
				dirtyCount++
			}
		}
		switch e.state {
		case dirInvalid:
			if len(validNodes) != 0 {
				return fmt.Errorf("directory: address %d invalid in directory but cached at %v", a, validNodes)
			}
		case dirShared:
			if dirtyCount != 0 {
				return fmt.Errorf("directory: address %d shared but has %d dirty copies", a, dirtyCount)
			}
			for _, node := range validNodes {
				if !e.sharers[node] {
					return fmt.Errorf("directory: address %d cached at node %d, missing from sharer set", a, node)
				}
			}
		case dirOwned:
			if len(validNodes) != 1 || validNodes[0] != e.owner {
				return fmt.Errorf("directory: address %d owned by %d but cached at %v", a, e.owner, validNodes)
			}
		}
	}
	return nil
}
