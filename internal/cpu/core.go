// Package cpu implements the core model: a 4-wide out-of-order core with
// a 224-entry reorder buffer, in-order retirement, loads that block
// retirement at the ROB head, stores that retire without waiting for
// their read-for-ownership, and a branch-misprediction fetch bubble.
//
// The paper (§VI) uses Skylake-like cores in the Sniper interval
// simulator; what the DRAM stacks need from the core is the closed-loop
// behavior — the rate and parallelism of the memory requests it can keep
// in flight given the latencies it observes — which this model reproduces
// with ROB occupancy, per-core MSHR limits (in package cache) and
// explicit load-to-load dependencies for pointer-chasing patterns.
//
// While running, the core attributes every CPU cycle to a cycle-stack
// component (package cyclestack): base, branch, dcache, dram-latency,
// dram-queue or idle, with DRAM stalls split using the per-request DRAM
// latency stack (queue fraction) exactly as Fig. 7 requires.
//
// The hot loop is allocation-free in steady state: load tickets are
// reference-counted and pooled, and memory completions arrive through
// the cache.Waiter interface (a pooled ticket is its own completion
// waiter) instead of per-access closures. Five provably repetitive
// states let the system replay stretches of cycles in closed form
// instead of ticking them: a finished core (idle), an empty core inside
// a branch-misprediction bubble (branch), a window around a single load
// with a known completion, a core dispatching a pure ALU run (base), and
// a core stalled on an in-flight DRAM load with nothing else to do
// (dram) — see NextEventCycle/FastForward. The last one lasts until a
// memory completion arrives, so the core reports every completion to
// its wake hook before the completion changes any state (see SetWake).
package cpu

import (
	"fmt"
	"math"

	"dramstacks/internal/cache"
	"dramstacks/internal/cyclestack"
)

// Kind classifies an instruction item from a Source.
type Kind uint8

const (
	// KindALU is plain computation (also used for internal chunks).
	KindALU Kind = iota
	// KindLoad reads memory and can block retirement.
	KindLoad
	// KindStore writes memory (write-allocate: triggers a
	// read-for-ownership) but does not block retirement.
	KindStore
	// KindBranch is a conditional branch, possibly mispredicted.
	KindBranch
	// KindStall means the source has no work this cycle (e.g. the thread
	// waits at a barrier): the core dispatches nothing and polls the
	// source again next cycle. The stalled time shows up as the cycle
	// stack's idle component, as in the paper's Fig. 7 bfs dip.
	KindStall
)

// Instr is one macro item emitted by a workload: Work plain uops followed
// by one memory/branch operation (Kind). A pure-compute item has
// Kind == KindALU and only Work uops.
type Instr struct {
	// Work is the number of plain uops preceding the operation.
	Work int
	// Kind selects the trailing operation (KindALU for none).
	Kind Kind
	// Addr is the byte address for KindLoad / KindStore.
	Addr uint64
	// Mispredict marks a mispredicted KindBranch.
	Mispredict bool
	// LoadDep, for KindLoad, makes this load's address depend on the
	// k-th most recent earlier load (1 = previous load): the access
	// cannot start before that load's data returns. Zero means
	// independent. This is how pointer-chasing workloads bound their
	// memory-level parallelism.
	LoadDep int
}

// Source produces a core's instruction stream.
type Source interface {
	// Next returns the next item, or ok == false when the stream ends.
	Next() (ins Instr, ok bool)
}

// BatchSource is an optional Source fast path: NextBatch fills buf with
// the next instructions of the stream and returns how many it produced.
// Zero means end of stream, and every later call must also return zero.
//
// The contract is strict so the core may pull ahead: across any mix of
// Next and NextBatch calls, the k-th instruction handed out must be the
// k-th of the stream. Only pure sources — whose items are a function of
// consumption count alone — may implement BatchSource; a source whose
// result depends on when it is polled (a KindStall barrier tied to
// external simulation state, say) must stay a plain Source, and the
// core then polls it one instruction at a time exactly as before.
type BatchSource interface {
	Source
	NextBatch(buf []Instr) int
}

// WarmKeyer is an optional BatchSource extension that lets the
// simulator reuse functionally warmed cache state across machines.
// WarmKey returns a canonical description of the stream: two sources
// with equal keys hand out identical item sequences, so a machine
// warmed from one can be reproduced for the other by restoring the
// warm caches and the source's post-warm state. It reports false once
// the source has handed out any item, because a consumed source no
// longer starts at the stream's head.
//
// CloneWarm returns an independent copy of the source's full state —
// generator and stream position included — and the bytes that copy
// retains. RestoreWarm overwrites the receiver's state with a copy of
// from, a CloneWarm result of a source with the same WarmKey; from is
// only read, so one clone can be restored any number of times, and the
// receiver then hands out exactly the items the cloned source would
// have handed out next.
type WarmKeyer interface {
	BatchSource
	WarmKey() (string, bool)
	CloneWarm() (state WarmKeyer, bytes int64)
	RestoreWarm(from WarmKeyer)
}

// batchLen is the core's pull-buffer size: big enough to amortize the
// per-call generator overhead, small enough to stay cache resident.
const batchLen = 64

// Mem is the core's port into the cache hierarchy. Completions are
// delivered through the cache.Waiter the core passes in (a pooled load
// ticket, or the core itself for store read-for-ownerships).
type Mem interface {
	Access(now int64, core int, addr uint64, write bool, w cache.Waiter) cache.Outcome
}

// Config parameterizes a core.
type Config struct {
	Width         int // superscalar width (4)
	ROBSize       int // reorder buffer entries (224)
	BranchPenalty int // fetch bubble after a misprediction, CPU cycles
	// StartsPerCycle caps how many memory accesses may begin per cycle.
	StartsPerCycle int
}

// DefaultConfig returns the paper's Skylake-like core parameters.
func DefaultConfig() Config {
	return Config{Width: 4, ROBSize: 224, BranchPenalty: 15, StartsPerCycle: 4}
}

// InOrderConfig returns a small in-order-like core (2-wide, a 16-entry
// window, one memory access start per cycle): an ablation showing how
// much the stacks depend on the core's ability to overlap misses.
func InOrderConfig() Config {
	return Config{Width: 2, ROBSize: 16, BranchPenalty: 8, StartsPerCycle: 1}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROBSize <= 0 || c.BranchPenalty < 0 || c.StartsPerCycle <= 0 {
		return fmt.Errorf("cpu: invalid config %+v", c)
	}
	return nil
}

// ticket tracks one load's completion state; dependent loads hold a
// pointer to their producer's ticket. Tickets are pooled by their core:
// refs counts the load-history slot and any dependent operations still
// pointing at the ticket, and a retired ticket returns to the pool when
// the last reference drops (see release). A ticket doubles as the
// cache.Waiter for its own in-flight fill.
type ticket struct {
	c         *Core
	started   bool
	retired   bool
	refs      int32 // load-history slot + dependent startQ entries
	done      int64 // completion CPU cycle, -1 while unknown
	level     int   // cache level of a hit; 0 = DRAM
	queueFrac float64
	regFrac   float64 // share of DRAM latency spent QoS-regulated
	stall     int64   // head-of-ROB stall cycles charged to this load
}

// MemDone implements cache.Waiter: the DRAM fill for this load is
// complete. The owning core's wake hook runs first (see SetWake).
func (tk *ticket) MemDone(doneCPU int64, queueFrac, regFrac float64) {
	tk.c.wake()
	tk.done = doneCPU
	tk.queueFrac = queueFrac
	tk.regFrac = regFrac
}

type robItem struct {
	kind    Kind
	count   int   // uops in an ALU chunk (1 for others)
	readyAt int64 // ALU/branch/store readiness
	tk      *ticket
}

type memOp struct {
	addr  uint64
	write bool
	dep   *ticket // must be done before the access can start
	tk    *ticket // load's own ticket (nil for stores)
}

// Stats counts a core's committed work.
type Stats struct {
	Retired     int64 // committed uops
	Loads       int64
	Stores      int64
	Branches    int64
	Mispredicts int64
	DramLoads   int64 // loads served by DRAM
}

// Core is one out-of-order core.
type Core struct {
	id   int
	cfg  Config
	mem  Mem
	src  Source
	acct *cyclestack.Accountant

	rob   []robItem // ring buffer
	head  int
	tail  int
	items int
	occ   int // occupied uop slots
	loads int // KindLoad items currently in the ROB

	startQ []memOp

	// Batched source pull: when src implements BatchSource, dispatch
	// refills batch only when it runs dry, consuming one buffered
	// instruction per poll — the source sees the same consumption
	// sequence, batchLen at a time.
	bsrc     BatchSource
	batch    []Instr
	batchPos int
	batchN   int

	pendingWork int
	pendingOp   *Instr
	pendingBuf  Instr
	srcDone     bool

	fetchBlockedUntil int64

	loadHist  [32]*ticket
	loadHistN int
	outStores int // store RFOs in flight in the memory system

	tkFree []*ticket // ticket pool

	onWake func(id int) // see SetWake

	stats Stats
}

// New returns a core. It panics on invalid configuration.
func New(id int, cfg Config, mem Mem, src Source) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		id:   id,
		cfg:  cfg,
		mem:  mem,
		src:  src,
		acct: cyclestack.NewAccountant(),
		rob:  make([]robItem, cfg.ROBSize+1),
	}
	if bs, ok := src.(BatchSource); ok {
		c.bsrc = bs
		c.batch = make([]Instr, batchLen)
	}
	return c
}

// SetWake installs fn as the core's wake hook: it runs at the start of
// every memory completion for the core (a load fill or a store's
// read-for-ownership), before the completion changes any core state.
// A system that ticks the core only at its NextEventCycle events uses
// it to replay the cycles the core owes under the state that proved
// them, and to make the core due again.
func (c *Core) SetWake(fn func(id int)) { c.onWake = fn }

func (c *Core) wake() {
	if c.onWake != nil {
		c.onWake(c.id)
	}
}

// Stats returns the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Stack returns the core's cycle stack so far. The stall charged to a
// DRAM load still at the ROB head is counted in the total but split
// only when the load retires, so it is reported as Deferred.
func (c *Core) Stack() cyclestack.Stack {
	s := c.acct.Stack()
	if c.items > 0 && c.rob[c.head].kind == KindLoad {
		if tk := c.rob[c.head].tk; tk.level == 0 {
			s.Deferred = tk.stall
		}
	}
	return s
}

// Accountant exposes the cycle-stack accountant (for through-time
// sampling by the system).
func (c *Core) Accountant() *cyclestack.Accountant { return c.acct }

// Done reports whether the core has committed its whole stream and has
// no outstanding memory operations.
func (c *Core) Done() bool {
	return c.srcDone && c.pendingOp == nil && c.pendingWork == 0 &&
		c.items == 0 && len(c.startQ) == 0 && c.outStores == 0
}

func (c *Core) robFree() int { return c.cfg.ROBSize - c.occ }

func (c *Core) push(it robItem) {
	c.rob[c.tail] = it
	c.tail = (c.tail + 1) % len(c.rob)
	c.items++
	c.occ += it.count
	if it.kind == KindLoad {
		c.loads++
	}
}

// newTicket takes a ticket from the pool (or allocates one) reset for a
// fresh load.
func (c *Core) newTicket() *ticket {
	if n := len(c.tkFree); n > 0 {
		tk := c.tkFree[n-1]
		c.tkFree = c.tkFree[:n-1]
		tk.started, tk.retired = false, false
		tk.done, tk.level, tk.queueFrac, tk.regFrac, tk.stall = -1, 0, 0, 0, 0
		return tk
	}
	return &ticket{c: c, done: -1}
}

// release drops one reference and recycles the ticket once it is
// retired and unreferenced. A retired DRAM load has already had its
// completion delivered (retirement requires done >= 0), so no callback
// can reach a pooled ticket.
func (c *Core) release(tk *ticket) {
	if tk.refs == 0 && tk.retired {
		c.tkFree = append(c.tkFree, tk)
	}
}

// unref drops one counted reference (history slot or dependent op).
func (c *Core) unref(tk *ticket) {
	tk.refs--
	c.release(tk)
}

// streakLen returns how many cycles of an ALU dispatch streak start at
// CPU cycle now, or 0. During a streak every cycle provably repeats the
// same step — retire Width ready uops, dispatch one Width-uop ALU
// chunk, attribute base — so FastForward can replay it in closed form:
//
//   - every ROB item ahead of the retire head's reach is an ALU, branch
//     or store chunk pushed before now, so its readyAt is at most now
//     and retirement never blocks (retire treats the three kinds
//     identically); with occ >= Width, exactly Width uops retire per
//     cycle;
//   - pendingWork >= Width per remaining cycle keeps dispatch from
//     consulting the source, and robFree >= Width keeps the push whole
//     (occupancy is constant: Width in, Width out);
//   - an empty start queue means no memory access can begin, so no
//     external state is touched (in-flight store RFOs only decrement
//     outStores on completion, which no streak cycle reads).
//
// A core whose ROB holds a load is handled by windowLen instead.
func (c *Core) streakLen(now int64) int64 {
	if c.items == 0 || c.loads != 0 || len(c.startQ) != 0 ||
		c.pendingWork < c.cfg.Width || c.fetchBlockedUntil > now ||
		c.occ < c.cfg.Width || c.robFree() < c.cfg.Width {
		return 0
	}
	return int64(c.pendingWork / c.cfg.Width)
}

// windowLen returns how many cycles of a single-load window start at
// CPU cycle now, or 0. The window covers a core whose ROB holds exactly
// one load with a known completion (a cache hit, or a DRAM fill whose
// timestamp has been delivered): retirement drains the uops ahead of
// the load at Width per cycle, stalls at the load until its completion,
// retires it, and drains on — every cycle of which is determined by the
// load's position and completion alone, so replayWindow can replay the
// whole stretch in closed form. Dispatch must be replayable for the
// window's length, which selects one of:
//
//   - regular dispatch — a full Width of buffered ALU uops pushed every
//     cycle: the window may run through the load's retirement and ends
//     when the source would be consulted (or a push would be partial),
//     min(pendingWork, robFree)/Width cycles out;
//   - a fetch bubble or provably inert dispatch (an exhausted source, or
//     work buffered behind a full ROB headed by the load itself, so
//     nothing retires to make room) — no pushes: the window must end by
//     the load's completion, before retirement would change what
//     dispatch sees.
//
// An empty start queue (kept empty by ALU-only dispatch) means no
// memory access can begin, so no external state is touched.
func (c *Core) windowLen(now int64) int64 {
	if c.loads != 1 || len(c.startQ) != 0 {
		return 0
	}
	// The ROB's only load is the youngest one dispatched.
	tk := c.depTicket(1)
	if !tk.started || tk.done < 0 {
		return 0 // completion unknown: see dramStalled
	}
	w := c.cfg.Width
	switch {
	case c.fetchBlockedUntil > now:
		k := tk.done - now
		if b := c.fetchBlockedUntil - now; b < k {
			k = b
		}
		return k
	case c.pendingWork >= w && c.robFree() >= w:
		if tk.done <= now && c.occ-1 < w {
			// The load retires on the window's first cycle (jR = 0) with
			// fewer than Width other uops in the ROB, so fewer than Width
			// ahead of it: the first cycle's retire budget would outrun
			// the ROB content (this cycle's dispatch is not retirable
			// yet), which the closed form does not model. Take a real
			// cycle.
			return 0
		}
		avail := c.pendingWork
		if f := c.robFree(); f < avail {
			avail = f
		}
		return int64(avail / w)
	case c.rob[c.head].kind == KindLoad && c.robFree() == 0 && (c.pendingWork > 0 || c.pendingOp != nil), c.srcDone:
		return tk.done - now
	default:
		return 0 // dispatch would consult the source or dispatch an op
	}
}

// inFlightHead returns the ticket of the head-of-ROB load while its DRAM
// fill is in flight (started, completion not yet delivered), or nil.
func (c *Core) inFlightHead() *ticket {
	if c.items == 0 || c.rob[c.head].kind != KindLoad {
		return nil
	}
	if tk := c.rob[c.head].tk; tk.started && tk.done < 0 {
		return tk
	}
	return nil
}

// dramStalled reports whether every cycle from now on repeats a pure
// DRAM stall until a memory completion for this core arrives: the
// head-of-ROB load is in flight, retirement is blocked behind it,
// dispatch is inert whether or not a fetch bubble is running (the ROB is
// full with work buffered, or the source is exhausted with nothing
// buffered), and every queued memory operation waits on an address
// dependency that is itself in flight. Each such cycle is "stall++,
// total++" on the head load.
func (c *Core) dramStalled() bool {
	if c.inFlightHead() == nil {
		return false
	}
	if c.pendingWork > 0 || c.pendingOp != nil {
		if c.robFree() != 0 {
			return false // dispatch would push buffered work
		}
	} else if !c.srcDone {
		return false // dispatch would consult the source
	}
	for i := range c.startQ {
		if dep := c.startQ[i].dep; dep == nil || dep.done >= 0 {
			return false // could start (or become startable) on its own
		}
	}
	return true
}

// NextEventCycle returns the first CPU cycle at or after now at which
// the core might do anything other than repeat its current steady-state
// cycle, assuming no external event (memory completion) arrives in
// between. Five states are provably repetitive:
//
//   - a finished core (Done) idles forever: math.MaxInt64;
//   - an empty core inside a branch-misprediction fetch bubble with no
//     memory operations outstanding repeats a pure branch-penalty cycle
//     until the bubble ends: fetchBlockedUntil;
//   - a core stalled on an in-flight head-of-ROB DRAM load with inert
//     dispatch (see dramStalled) repeats the stall until a completion
//     arrives, which only the memory side knows: math.MaxInt64;
//   - a core whose ROB holds exactly one load with a known completion
//     replays the whole drain/stall/retire window around it (see
//     windowLen): now + windowLen;
//   - a core in a pure ALU dispatch streak (see streakLen) repeats a
//     retire-and-dispatch base cycle until the source must be
//     consulted: now + streakLen.
//
// Everything else returns now (no skip): the core consumes its source,
// starts memory accesses, or waits on in-flight memory whose completion
// time this side does not know. FastForward may only cover cycles
// strictly before the returned cycle.
func (c *Core) NextEventCycle(now int64) int64 {
	if c.Done() {
		return math.MaxInt64
	}
	if c.items == 0 && len(c.startQ) == 0 && c.outStores == 0 &&
		c.pendingWork == 0 && c.pendingOp == nil && !c.srcDone &&
		c.fetchBlockedUntil > now {
		return c.fetchBlockedUntil
	}
	if c.dramStalled() {
		return math.MaxInt64
	}
	if c.loads == 1 {
		if k := c.windowLen(now); k > 0 {
			return now + k
		}
		return now
	}
	if k := c.streakLen(now); k > 0 {
		return now + k
	}
	return now
}

// FastForward charges the n CPU cycles starting at from in closed form,
// bit-identical to n CPUCycle calls in the steady state NextEventCycle
// proved: idle cycles for a finished core, branch cycles inside a fetch
// bubble, DRAM stall cycles behind an in-flight head load (their split
// into latency and queueing happens when the load retires), a replayed
// single-load window, or a replayed ALU dispatch streak.
func (c *Core) FastForward(from, n int64) {
	switch {
	case c.Done():
		c.acct.AddCycles(cyclestack.Idle, n)
	case c.items == 0:
		c.acct.AddCycles(cyclestack.Branch, n)
	case c.inFlightHead() != nil:
		c.rob[c.head].tk.stall += n
		c.acct.AddTotal(n)
	case c.loads == 1:
		c.replayWindow(from, n)
	default:
		c.replayStreak(from, n)
	}
}

// consume retires k plain uops FIFO from the ROB head, the ring-level
// half of a replay. Chunk kinds and readiness are inert here (see
// replayStreak); occupancy and statistics are the caller's business.
func (c *Core) consume(k int64) {
	size := len(c.rob)
	for k > 0 {
		if c.items == 0 {
			panic("cpu: replay drained the ROB")
		}
		it := &c.rob[c.head]
		if it.kind == KindLoad {
			panic("cpu: replay reached an in-flight load")
		}
		m := int64(it.count)
		if m > k {
			m = k
		}
		it.count -= int(m)
		k -= m
		if it.count == 0 {
			c.head = (c.head + 1) % size
			c.items--
		}
	}
}

// replayWindow replays n cycles of the single-load window starting at
// CPU cycle from, bit-identical to n CPUCycle calls in the state
// windowLen proved. With the load `a` uops behind the retire head,
// completing at D, and a retire budget of Width per cycle, the slow
// loop's behavior is fully determined (cycle indices j = 0..n-1
// relative to from):
//
//   - drain: cycles j < ceil(a/Width) retire pre-load uops (base);
//   - stall: cycles from ceil(a/Width) up to jR classify against the
//     load by its level (DRAM total / Dcache / L1-shadow base), where
//     jR = max(floor(a/Width), D-from) is the cycle the retire budget
//     reaches the load AND its completion has passed;
//   - retire: if n > jR (regular dispatch only — inert modes end by D),
//     cycle jR retires the load (releasing its ticket and settling the
//     DRAM queue/latency split) plus the rest of that cycle's budget
//     from the uops behind it, and later cycles drain Width each.
//
// Dispatch meanwhile pushes either nothing (bubble / inert modes) or
// exactly Width ALU uops per cycle; the n chunks collapse into one
// ready at from+n, pushed before the drain so post-load retirement can
// consume into it exactly as the slow loop consumes earlier pushes.
// Every consumed uop was ready when the budget reached it, and every
// survivor is first reachable at or after from+n — the same inertness
// argument as replayStreak.
func (c *Core) replayWindow(from, n int64) {
	idx := c.head
	a := int64(0)
	for c.rob[idx].kind != KindLoad {
		a += int64(c.rob[idx].count)
		idx = (idx + 1) % len(c.rob)
	}
	tk := c.rob[idx].tk
	if len(c.startQ) != 0 || !tk.started || tk.done < 0 {
		panic("cpu: FastForward outside a provable steady state")
	}
	w := int64(c.cfg.Width)
	jR := a / w
	if d := tk.done - from; d > jR {
		jR = d
	}
	// Dispatch, mirroring the mode windowLen proved (checked before any
	// state moves).
	pushes := int64(0)
	switch {
	case c.fetchBlockedUntil > from:
		if c.fetchBlockedUntil < from+n || tk.done < from+n {
			panic("cpu: window replay crosses the end of a fetch bubble")
		}
	case c.pendingWork >= c.cfg.Width && c.robFree() >= c.cfg.Width:
		pushes = n * w
		if int64(c.pendingWork) < pushes || int64(c.robFree()) < pushes {
			panic("cpu: window replay outruns the buffered work")
		}
	default:
		inert := a == 0 && c.robFree() == 0 && (c.pendingWork > 0 || c.pendingOp != nil) || c.srcDone
		if !inert || tk.done < from+n {
			panic("cpu: FastForward outside a provable steady state")
		}
	}
	// Attribution: stall cycles classify against the load, the rest
	// retire something and attribute base.
	s := jR
	if n < s {
		s = n
	}
	s -= (a + w - 1) / w
	if s < 0 {
		s = 0
	}
	base := n - s
	switch {
	case tk.level == 0:
		// DRAM stall: totals now, split at retirement (see retire).
		tk.stall += s
		c.acct.AddTotal(s)
	case tk.level >= 2:
		c.acct.AddCycles(cyclestack.Dcache, s)
	default:
		base = n // L1 hit shadow classifies base too
	}
	if base > 0 {
		c.acct.AddCycles(cyclestack.Base, base)
	}
	if pushes > 0 {
		c.pushALU(int(pushes), from+n)
		c.pendingWork -= int(pushes)
	}
	// Retirement. counted tracks what the slow loop's retire() adds to
	// stats.Retired, which is less than the uops actually drained when a
	// cycle ends blocked: retire() returns early at a not-yet-done load
	// and skips its stats update, dropping that cycle's partial drain
	// (a%Width pre-load uops) from the count. That happens exactly when
	// the pre-load drain empties mid-cycle before the load's completion
	// (jR past the drain); when the load retires the same cycle, the
	// cycle runs its full budget and everything is counted.
	retired := a
	counted := retired
	if m := n * w; m < retired {
		retired, counted = m, m
	} else if rem := a % w; rem > 0 && jR > a/w {
		counted -= rem
	}
	c.consume(retired)
	if n > jR {
		// The load retires at cycle jR with the ticket bookkeeping the
		// slow retire arm performs, and the rest of the window drains the
		// uops (and collapsed pushes) behind it.
		it := &c.rob[c.head]
		if it.kind != KindLoad || retired != a {
			panic("cpu: window replay lost track of its load")
		}
		if tk.level == 0 && tk.stall > 0 {
			// Split this load's head-of-ROB stall using its DRAM
			// latency stack (see retire).
			c.addDramStall(tk)
		}
		it.tk = nil
		tk.retired = true
		c.release(tk)
		c.head = (c.head + 1) % len(c.rob)
		c.items--
		c.loads--
		remPre := a - jR*w
		if remPre < 0 {
			remPre = 0
		}
		post := (w - remPre - 1) + (n-1-jR)*w
		c.consume(post)
		retired += 1 + post
		counted += 1 + post
	}
	c.occ -= int(retired) // pushALU already counted the pushes
	c.stats.Retired += counted
}

// replayStreak replays n cycles of an ALU dispatch streak starting
// at CPU cycle from, bit-identical to n CPUCycle calls: per cycle,
// Width uops retire FIFO from the head (all ready, as streakLen
// proved — ALU, branch and store chunks retire identically once their
// readyAt has passed) and one Width-uop chunk ready next cycle is
// pushed; the cycle attributes base. Occupancy is unchanged (Width in,
// Width out), so the net effect is consuming the first n*Width uops of
// the stream "current content, then the n pushed chunks" and keeping
// the rest.
//
// The survivors' chunk boundaries, kinds (ALU/branch/store retire and
// classify identically) and readiness are all inert: a surviving chunk
// is first reachable by the retire head at or after from+n, and every
// survivor is ready by then. That licenses two collapses, making the
// replay O(chunks consumed) instead of O(n): the n pushed chunks
// become one chunk ready at from+n, and when the streak consumes the
// entire prior content (no load rides along and occ <= n*Width uops,
// so the slow loop would start consuming its own pushes) the final ROB
// is exactly one such chunk holding the unchanged occupancy.
//
// streakLen sized n so the replay never consumes an in-flight load;
// the panic below enforces that invariant.
func (c *Core) replayStreak(from, n int64) {
	w := c.cfg.Width
	total := int(n) * w
	if len(c.startQ) != 0 || c.pendingWork < total {
		panic("cpu: FastForward outside a provable steady state")
	}
	size := len(c.rob)
	if c.loads == 0 && c.occ <= total {
		// Everything currently buffered retires inside the window; what
		// remains is the tail of the replayed pushes, occ uops in one
		// collapsed chunk.
		c.head, c.tail, c.items = 0, 1, 1
		c.rob[0] = robItem{kind: KindALU, count: c.occ, readyAt: from + n}
	} else {
		need := total
		for need > 0 {
			it := &c.rob[c.head]
			if it.kind == KindLoad {
				panic("cpu: streak replay reached an in-flight load")
			}
			m := it.count
			if m > need {
				m = need
			}
			it.count -= m
			need -= m
			if it.count == 0 {
				c.head = (c.head + 1) % size
				c.items--
			}
		}
		c.rob[c.tail] = robItem{kind: KindALU, count: total, readyAt: from + n}
		c.tail = (c.tail + 1) % size
		c.items++
	}
	c.pendingWork -= total
	c.stats.Retired += n * int64(w)
	c.acct.AddCycles(cyclestack.Base, n)
}

// CPUCycle advances the core by one CPU cycle: retire, dispatch, start
// eligible memory accesses, then attribute the cycle.
func (c *Core) CPUCycle(now int64) {
	if c.Done() {
		c.acct.AddCycle(cyclestack.Idle)
		return
	}
	retired := c.retire(now)
	c.dispatch(now)
	c.startAccesses(now)
	c.classify(now, retired)
}

// startAccesses begins memory accesses whose dependencies have resolved.
func (c *Core) startAccesses(now int64) {
	started := 0
	for i := 0; i < len(c.startQ) && started < c.cfg.StartsPerCycle; i++ {
		op := &c.startQ[i]
		if op.dep != nil && !(op.dep.done >= 0 && op.dep.done <= now) {
			continue // producer not finished: address unknown
		}
		tk := op.tk
		var w cache.Waiter
		if tk != nil {
			w = tk
		} else {
			w = c // store RFO: completion only drops outStores
		}
		out := c.mem.Access(now, c.id, op.addr, op.write, w)
		switch out.Status {
		case cache.Retry:
			// Structural hazard: leave the op queued; later ops would
			// hit the same hazard, so stop trying this cycle.
			return
		case cache.Hit:
			if tk != nil {
				tk.started = true
				tk.done = now + int64(out.Latency)
				tk.level = out.Level
			}
		case cache.Pending:
			if tk != nil {
				tk.started = true
				tk.done = -1
				tk.level = 0
				c.stats.DramLoads++
			}
			if op.write {
				c.outStores++
			}
		}
		started++
		if op.dep != nil {
			c.unref(op.dep)
		}
		c.startQ = append(c.startQ[:i], c.startQ[i+1:]...)
		i--
	}
}

// MemDone implements cache.Waiter for store read-for-ownerships: the
// line arrived, the store's writeback obligation is met.
func (c *Core) MemDone(doneCPU int64, queueFrac, regFrac float64) {
	c.wake()
	c.outStores--
}

// addDramStall charges a DRAM load's head-of-ROB stall to the cycle
// stack, split by the load's own DRAM latency stack: regulated cycles
// to dram-regulated, queueing cycles to dram-queue, the rest to
// dram-latency. regFrac is exactly 0 without a QoS policy, so the
// legacy two-way split is unchanged byte for byte.
func (c *Core) addDramStall(tk *ticket) {
	stall := float64(tk.stall)
	if tk.regFrac > 0 {
		c.acct.Add(cyclestack.DramRegulated, stall*tk.regFrac)
	}
	c.acct.Add(cyclestack.DramQueue, stall*tk.queueFrac)
	c.acct.Add(cyclestack.DramLatency, stall*(1-tk.queueFrac-tk.regFrac))
}

// retire commits up to Width ready uops from the ROB head and returns how
// many it committed.
func (c *Core) retire(now int64) int {
	budget := c.cfg.Width
	retired := 0
	for budget > 0 && c.items > 0 {
		it := &c.rob[c.head]
		switch it.kind {
		case KindALU, KindBranch, KindStore:
			if it.readyAt > now {
				return retired
			}
			n := it.count
			if n > budget {
				n = budget
			}
			it.count -= n
			c.occ -= n
			budget -= n
			retired += n
		case KindLoad:
			tk := it.tk
			if !tk.started || tk.done < 0 || tk.done > now {
				return retired
			}
			if tk.level == 0 && tk.stall > 0 {
				// Split this load's head-of-ROB stall using its DRAM
				// latency stack.
				c.addDramStall(tk)
			}
			it.count = 0
			c.occ--
			budget--
			retired++
			it.tk = nil
			tk.retired = true
			c.release(tk)
		}
		if it.count == 0 {
			if it.kind == KindLoad {
				c.loads--
			}
			c.head = (c.head + 1) % len(c.rob)
			c.items--
		}
	}
	c.stats.Retired += int64(retired)
	return retired
}

// dispatch fills the ROB with up to Width uops from the source.
func (c *Core) dispatch(now int64) {
	if c.fetchBlockedUntil > now {
		return
	}
	budget := c.cfg.Width
	for budget > 0 {
		if c.pendingWork == 0 && c.pendingOp == nil {
			if c.srcDone {
				return
			}
			ins, ok := c.nextIns()
			if !ok {
				c.srcDone = true
				return
			}
			if ins.Kind == KindStall {
				return // barrier: no dispatch this cycle
			}
			c.pendingWork = ins.Work
			if ins.Kind != KindALU {
				c.pendingBuf = ins
				c.pendingOp = &c.pendingBuf
			}
		}
		if c.pendingWork > 0 {
			n := c.pendingWork
			if n > budget {
				n = budget
			}
			if free := c.robFree(); n > free {
				n = free
			}
			if n == 0 {
				return // ROB full
			}
			c.pushALU(n, now+1)
			c.pendingWork -= n
			budget -= n
			continue
		}
		// A single operation uop.
		if c.robFree() == 0 {
			return
		}
		op := c.pendingOp
		c.pendingOp = nil
		budget--
		switch op.Kind {
		case KindLoad:
			tk := c.newTicket()
			c.push(robItem{kind: KindLoad, count: 1, tk: tk})
			dep := c.depTicket(op.LoadDep)
			if dep != nil {
				dep.refs++
			}
			c.startQ = append(c.startQ, memOp{addr: op.Addr, write: false, dep: dep, tk: tk})
			slot := c.loadHistN % len(c.loadHist)
			if old := c.loadHist[slot]; old != nil {
				c.unref(old)
			}
			tk.refs++
			c.loadHist[slot] = tk
			c.loadHistN++
			c.stats.Loads++
		case KindStore:
			c.push(robItem{kind: KindStore, count: 1, readyAt: now + 1})
			c.startQ = append(c.startQ, memOp{addr: op.Addr, write: true})
			c.stats.Stores++
		case KindBranch:
			c.push(robItem{kind: KindBranch, count: 1, readyAt: now + 1})
			c.stats.Branches++
			if op.Mispredict {
				c.stats.Mispredicts++
				c.fetchBlockedUntil = now + int64(c.cfg.BranchPenalty)
				return // no dispatch past a mispredicted branch
			}
		}
	}
}

// nextIns returns the next source instruction, pulling batchLen at a
// time from BatchSource implementations. The buffer refills only when
// it runs dry, so end-of-stream is discovered at exactly the poll index
// the unbatched path would discover it, and a buffered KindStall is
// consumed by the poll that returns it — identical to Source.Next for
// any source honoring the BatchSource purity contract.
func (c *Core) nextIns() (Instr, bool) {
	if c.batchPos < c.batchN {
		ins := c.batch[c.batchPos]
		c.batchPos++
		return ins, true
	}
	if c.bsrc == nil {
		return c.src.Next()
	}
	c.batchN = c.bsrc.NextBatch(c.batch)
	if c.batchN == 0 {
		return Instr{}, false
	}
	c.batchPos = 1
	return c.batch[0], true
}

// pushALU appends an ALU chunk, merging with the tail chunk when the
// readiness matches (bounds ROB ring usage).
func (c *Core) pushALU(n int, readyAt int64) {
	if c.items > 0 {
		last := (c.tail + len(c.rob) - 1) % len(c.rob)
		it := &c.rob[last]
		if it.kind == KindALU && it.readyAt == readyAt {
			it.count += n
			c.occ += n
			return
		}
	}
	c.push(robItem{kind: KindALU, count: n, readyAt: readyAt})
}

// depTicket resolves "the k-th most recent load" into its ticket.
func (c *Core) depTicket(k int) *ticket {
	if k <= 0 || k > len(c.loadHist) || k > c.loadHistN {
		return nil
	}
	return c.loadHist[(c.loadHistN-k)%len(c.loadHist)]
}

// classify attributes this cycle to a cycle-stack component.
func (c *Core) classify(now int64, retired int) {
	switch {
	case retired > 0:
		c.acct.AddCycle(cyclestack.Base)
	case c.items == 0:
		if !c.srcDone && c.fetchBlockedUntil > now {
			c.acct.AddCycle(cyclestack.Branch)
		} else {
			c.acct.AddCycle(cyclestack.Idle)
		}
	default:
		it := &c.rob[c.head]
		if it.kind == KindLoad {
			tk := it.tk
			switch {
			case tk.started && tk.level == 0:
				// DRAM stall: total added now, split at retirement.
				tk.stall++
				c.acct.AddTotal(1)
			case tk.started && tk.level >= 2:
				c.acct.AddCycle(cyclestack.Dcache)
			case tk.started:
				c.acct.AddCycle(cyclestack.Base) // L1 hit shadow
			default:
				// Not started: blocked on a structural hazard (MSHRs
				// full — memory pressure) or an address dependency.
				c.acct.AddCycle(cyclestack.DramQueue)
			}
			return
		}
		c.acct.AddCycle(cyclestack.Base)
	}
}
