// Package sim assembles the full simulated machine of the paper's §VI:
// 1–8 out-of-order cores with private L1/L2 caches and a shared LLC,
// attached to a DDR4-2400 memory controller with FR-FCFS scheduling,
// while the bandwidth, latency and cycle stacks are collected.
//
// The master clock is the memory clock (1.2 GHz); cores run CPUMult CPU
// cycles per memory cycle (3, i.e. 3.6 GHz).
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
	"dramstacks/internal/cyclestack"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/sched"
	"dramstacks/internal/stacks"
)

// Mapping selects the address-indexing scheme (paper Fig. 5).
type Mapping uint8

const (
	// MapDefault is the page-local scheme of Fig. 5(a).
	MapDefault Mapping = iota
	// MapInterleaved is the cache-line-interleaved scheme of Fig. 5(b).
	MapInterleaved
	// MapXOR is the default scheme with permutation-based (XOR) bank
	// hashing: same-bank row conflicts spread over the banks while page
	// locality is preserved.
	MapXOR
)

// String names the mapping as in Fig. 6 ("def" / "int"), plus "xor".
func (m Mapping) String() string {
	switch m {
	case MapInterleaved:
		return "int"
	case MapXOR:
		return "xor"
	default:
		return "def"
	}
}

// Config describes a full-system experiment. Systems are assembled with
// New(standard, ...Option), which starts from DefaultFor; spec-driven
// callers that derive a whole Config elsewhere hand it over with
// WithConfig.
type Config struct {
	Cores   int
	CPUMult int // CPU cycles per memory cycle
	// Channels is the number of memory channels, each with its own
	// controller and stack accounting (0 means 1). With more than one
	// channel, consecutive cache lines interleave across channels and
	// the per-controller stacks are aggregated in the Result, as the
	// paper describes (§IV).
	Channels int
	// SubChannels is the number of independently timed sub-devices (HBM
	// pseudo-channels) behind each addressed channel (0 means 1). Each
	// sub-channel gets its own controller, device and stacks, exactly
	// like a channel; the sub-channel select bit sits directly above the
	// cache-line offset in the address map. Standards set this via
	// DefaultFor (2 for hbm2-2000, 1 otherwise).
	SubChannels int

	Core cpu.Config
	Hier cache.HierConfig
	Ctrl memctrl.Config

	Geom dram.Geometry
	Tim  dram.Timing
	Map  Mapping

	// PrewarmOps functionally pre-warms the caches with this many memory
	// operations per core from the head of its instruction stream before
	// timing starts (no statistics, no DRAM traffic). Without it, runs
	// shorter than an LLC fill see no steady-state writebacks.
	PrewarmOps int64
	// MaxMemCycles stops the run (0 = run until the workload finishes).
	MaxMemCycles int64
	// WarmupMemCycles are excluded from the reported stacks.
	WarmupMemCycles int64
	// SampleInterval cuts through-time samples every so many memory
	// cycles (0 disables).
	SampleInterval int64
	// Verify replays every DRAM command through the independent timing
	// verifier (cheap; recommended in tests and experiments).
	Verify bool
	// Trace, if non-nil, receives every issued DRAM command (e.g. a
	// trace.Recorder hook for offline stack construction).
	Trace func(cycle int64, cmd dram.Command)
}

// DefaultFor returns the paper's machine configuration for the given
// core count attached to the given DRAM standard: the standard supplies
// geometry, timing and pseudo-channel topology; everything CPU-side
// stays the paper's machine.
func DefaultFor(std standard.Standard, cores int) Config {
	cfg := Config{
		Cores:        cores,
		CPUMult:      3,
		Core:         cpu.DefaultConfig(),
		Hier:         cache.DefaultHierConfig(cores),
		Ctrl:         memctrl.DefaultConfig(),
		Geom:         std.Geometry,
		Tim:          std.Timing,
		MaxMemCycles: 2_000_000,
		Verify:       true,
	}
	if std.SubChannels > 1 {
		cfg.SubChannels = std.SubChannels
	}
	return cfg
}

// Validate reports a descriptive error for unusable configurations. It
// is the complete admission check: a Config it accepts builds — the
// address mapper derives, and the controller and cache configurations
// pass their own checks, as do the DRAM geometry and timing — so New
// can fail only on its sources. It builds no devices and runs no
// prewarm.
func (c Config) Validate() error {
	_, err := c.validate()
	return err
}

// validate is Validate returning the address mapper it derived, which
// newSystem builds the machine around.
func (c Config) validate() (addrmap.Mapper, error) {
	if c.Cores <= 0 {
		return nil, fmt.Errorf("sim: cores must be positive, got %d", c.Cores)
	}
	if c.CPUMult <= 0 {
		return nil, fmt.Errorf("sim: CPU multiplier must be positive, got %d", c.CPUMult)
	}
	if c.Hier.Cores != c.Cores {
		return nil, fmt.Errorf("sim: hierarchy configured for %d cores, system has %d", c.Hier.Cores, c.Cores)
	}
	if c.Channels < 0 || c.Channels > 8 {
		return nil, fmt.Errorf("sim: channels must be in 0..8, got %d", c.Channels)
	}
	if c.SubChannels < 0 || c.SubChannels > 4 {
		return nil, fmt.Errorf("sim: sub-channels must be in 0..4, got %d", c.SubChannels)
	}
	if d := c.devices(); d > 16 {
		return nil, fmt.Errorf("sim: channels x sub-channels must be at most 16 devices, got %d", d)
	}
	if n := c.devices() + numBoundaries + c.Cores; n > sched.MaxActors {
		return nil, fmt.Errorf("sim: %d devices + %d boundaries + %d cores need %d event-wheel actors, at most %d fit",
			c.devices(), numBoundaries, c.Cores, n, sched.MaxActors)
	}
	if c.MaxMemCycles < 0 || c.WarmupMemCycles < 0 {
		return nil, fmt.Errorf("sim: negative cycle budget")
	}
	if c.MaxMemCycles > 0 && c.WarmupMemCycles >= c.MaxMemCycles {
		return nil, fmt.Errorf("sim: warmup %d must be below the cycle budget %d",
			c.WarmupMemCycles, c.MaxMemCycles)
	}
	if err := c.Core.Validate(); err != nil {
		return nil, err
	}
	if err := c.Hier.Validate(); err != nil {
		return nil, err
	}
	if err := c.ctrlConfig().Validate(); err != nil {
		return nil, err
	}
	if err := c.Geom.Validate(); err != nil {
		return nil, err
	}
	if err := c.Tim.Validate(); err != nil {
		return nil, err
	}
	return addrmap.Select(c.Geom, c.SubChannels, c.Channels, c.Map.String())
}

// ctrlConfig is the configuration every channel's controller gets.
func (c Config) ctrlConfig() memctrl.Config {
	cc := c.Ctrl
	cc.SampleInterval = c.SampleInterval
	// The simulator never retains a *Request past its completion
	// callback, so the controllers recycle request objects.
	cc.Recycle = true
	return cc
}

// devices returns the number of independently timed memory devices the
// configuration instantiates: channels × sub-channels (zeros mean 1).
func (c Config) devices() int {
	ch := c.Channels
	if ch == 0 {
		ch = 1
	}
	sub := c.SubChannels
	if sub == 0 {
		sub = 1
	}
	return ch * sub
}

// System is an assembled machine ready to Run.
type System struct {
	cfg      Config
	channels int
	devs     []*dram.Device
	ctrls    []*memctrl.Controller
	hier     *cache.Hierarchy
	cores    []*cpu.Core
	mapper   addrmap.Mapper

	verifiers  []*dram.Verifier
	violations []dram.Violation

	memCycle int64

	// slow selects the per-cycle reference loop (the -tags=slowtick
	// default); the event-loop state below is unused then.
	slow bool

	// wheel schedules every actor's next event by memory cycle: the
	// controllers (IDs 0..channels-1), the warmup, sampler and budget
	// boundaries, then the cores (see the actor ID helpers below).
	wheel *sched.Wheel
	// Controllers are ticked lazily: ctrlTicked is the last memory cycle
	// each controller has simulated, ctrlNext the next cycle it must
	// simulate for real (everything in between is provably idle and is
	// replayed in closed form by catchUpCtrl). ctrlTurn counts the
	// controllers whose turn in the current cycle's controller phase has
	// passed (see enqueueTarget).
	ctrlTicked []int64
	ctrlNext   []int64
	ctrlTurn   int
	// Cores are ticked only at their own events (see coreClock). active
	// holds the cores due by the next memory cycle, which the loop ticks
	// without touching the wheel; the rest wait as wheel actors or, with
	// no event of their own, for a memory completion to wake them.
	// tickCPU and tickCore locate the (CPU cycle, core) slot being
	// simulated, which is where a wake lands.
	clocks   []coreClock
	active   uint64
	tickCPU  int64
	tickCore int

	// readDone is the single pre-bound read-completion callback shared
	// by every memory request (the per-request waiter travels in
	// Request.Meta), so enqueuing allocates no closures.
	readDone func(*memctrl.Request, int64)

	observers []Observer

	cycleSamples []cyclestack.Stack
	lastCycle    cyclestack.Stack
	nextCut      int64
	published    int // per-channel samples already delivered to observers
	cancelled    bool

	warmBW     []stacks.BandwidthStack
	warmLat    []stacks.LatencyStack
	warmSrcBW  [][]stacks.SourceStack
	warmSrcLat [][]stacks.LatencyStack
	warmed     bool
}

// coreClock is a core's position in the event loop, in CPU cycles: next
// is its next event (cpu.Core.NextEventCycle; math.MaxInt64 for a
// finished core or one stalled until a memory completion), from the
// first cycle it has neither simulated nor replayed. The cycles from
// from up to next are provably repetitive and are replayed in closed
// form (cpu.Core.FastForward) when the core is next ticked or read.
type coreClock struct {
	next, from int64
}

// newSystem assembles a system; New fronts it.
func newSystem(cfg Config, sources []cpu.Source) (*System, error) {
	mapper, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if len(sources) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(sources), cfg.Cores)
	}

	channels := cfg.devices()

	s := &System{cfg: cfg, channels: channels, mapper: mapper}
	for ch := 0; ch < channels; ch++ {
		dev := dram.NewDevice(cfg.Geom, cfg.Tim)
		s.devs = append(s.devs, dev)
		var ver *dram.Verifier
		if cfg.Verify {
			ver = dram.NewVerifier(cfg.Geom, cfg.Tim)
		}
		s.verifiers = append(s.verifiers, ver)
		if cfg.Verify || cfg.Trace != nil {
			dev.Trace = func(cycle int64, cmd dram.Command) {
				if ver != nil {
					if vs := ver.Check(cycle, cmd); vs != nil {
						s.violations = append(s.violations, vs...)
					}
				}
				if cfg.Trace != nil {
					cfg.Trace(cycle, cmd)
				}
			}
		}
		ctrl, err := memctrl.New(dev, mapper, cfg.ctrlConfig())
		if err != nil {
			return nil, err
		}
		s.ctrls = append(s.ctrls, ctrl)
	}
	s.slow = SlowTick
	s.readDone = func(r *memctrl.Request, at int64) {
		r.Meta.(cache.Waiter).MemDone(at*int64(s.cfg.CPUMult), r.QueueFraction(), r.RegFraction())
	}
	s.hier, err = cache.NewHierarchy(cfg.Hier, (*memPort)(s))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, cpu.New(i, cfg.Core, s.hier, sources[i]))
	}
	if cfg.PrewarmOps > 0 {
		if err := s.warmStart(sources); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// numBoundaries is the number of boundary actors in the event wheel.
const numBoundaries = 3

// Actor IDs in the event wheel. Controllers come first, so a cycle's
// controller phase pops them in channel order; the boundaries follow in
// the order the reference loop observes them (warmup, sample, budget).
// Each boundary fires on the last memory cycle before it.
func (s *System) warmupActor() int    { return s.channels }
func (s *System) samplerActor() int   { return s.channels + 1 }
func (s *System) budgetActor() int    { return s.channels + 2 }
func (s *System) coreActor(i int) int { return s.channels + numBoundaries + i }

// memPort adapts the memory controller to the cache hierarchy's CPU-cycle
// view of time.
type memPort System

var _ cache.MemPort = (*memPort)(nil)

// route returns the channel index owning addr.
func (s *System) route(addr uint64) int {
	if s.channels == 1 {
		return 0
	}
	return s.mapper.Decode(addr).Channel
}

// enqueueTarget catches the addressed controller up and marks it due for
// the first real tick that sees a request arriving now: this cycle's
// (requests at cycle m arrive after Tick(m-1) and before Tick(m)), or
// the next one if the controller already had its turn in this cycle's
// controller phase — the reference loop ticked it before the request
// existed.
func (s *System) enqueueTarget(addr uint64) *memctrl.Controller {
	ch := s.route(addr)
	if !s.slow {
		at := s.memCycle
		if ch < s.ctrlTurn {
			at++
		}
		s.catchUpCtrl(ch, at-1)
		if s.ctrlNext[ch] > at {
			s.ctrlNext[ch] = at
			s.wheel.Schedule(ch, at)
		}
	}
	return s.ctrls[ch]
}

// Read implements cache.MemPort. The waiter rides in Request.Meta and
// the completion path goes through the system's single pre-bound
// callback, so a read enqueues without allocating.
func (p *memPort) Read(nowCPU int64, addr uint64, src int, w cache.Waiter) bool {
	s := (*System)(p)
	_, ok := s.enqueueTarget(addr).EnqueueReadFrom(s.memCycle, addr, src, s.readDone, w)
	return ok
}

// Write implements cache.MemPort.
func (p *memPort) Write(nowCPU int64, addr uint64, src int) bool {
	s := (*System)(p)
	_, ok := s.enqueueTarget(addr).EnqueueWriteFrom(s.memCycle, addr, src, nil, nil)
	return ok
}

// Hierarchy exposes the cache hierarchy.
func (s *System) Hierarchy() *cache.Hierarchy { return s.hier }

// Run simulates until the cycle budget is exhausted or every core's
// stream has committed and the memory system has drained.
func (s *System) Run() *Result { return s.RunContext(context.Background()) }

// cancelCheckMask controls how often RunContext polls the context: every
// 1024 memory cycles (~0.85 µs simulated), cheap enough to be invisible
// in profiles while bounding cancellation latency.
const cancelCheckMask = 1<<10 - 1

// SlowTick, when true, makes systems created afterwards use the reference
// per-cycle loop instead of the event loop. It defaults to false;
// building with -tags=slowtick flips the default. Both loops produce
// byte-identical results — the slow loop exists as the golden reference
// for the equivalence tests and for debugging.
var SlowTick = defaultSlowTick

// RunContext simulates like Run but additionally polls ctx every few
// memory cycles. When ctx is cancelled the run stops promptly and
// returns the partial result accumulated so far (with Cancelled set);
// warmup subtraction and through-time sampling behave exactly as on a
// normal early stop, so the partial stacks remain internally consistent.
//
// The loop is event-driven (see doc/PERF.md): every controller, core
// and boundary is an actor in a timing wheel, the loop jumps straight
// to the earliest pending event, and each memory cycle it simulates
// ticks only the actors that are due. Idle controller gaps and a core's
// provably repetitive stretches are replayed in closed form. Every
// stack, sample and statistic stays byte-identical to the reference
// per-cycle loop (build with -tags=slowtick, or set SlowTick, to run
// it).
func (s *System) RunContext(ctx context.Context) *Result {
	if s.slow {
		return s.runSlow(ctx)
	}
	s.startLoop()
	poll := int64(0) // next memory cycle to poll ctx at
	if ctx.Done() == nil {
		poll = math.MaxInt64
	}
	ctrls := uint64(1)<<uint(s.channels) - 1
	warmup := uint64(1) << uint(s.warmupActor())
	sampler := uint64(1) << uint(s.samplerActor())
	budget := uint64(1) << uint(s.budgetActor())
	for {
		m := s.memCycle
		if s.active == 0 && !s.hier.Pending() {
			// Nothing needs the next cycle: jump to the earliest event.
			// (A busy cache hierarchy implies a busy controller, but its
			// writeback retries run every CPU cycle, so step anyway.)
			m = s.wheel.Earliest()
		}
		s.wheel.Advance(m)
		s.memCycle = m
		due := s.wheel.PopDue()
		s.active |= due >> uint(s.coreActor(0))
		s.tickCores(m)

		// Controller phase, after every subcycle and in channel order. A
		// request reaching an idle controller schedules it on this very
		// cycle, so pop again.
		s.tickCPU, s.tickCore = (m+1)*int64(s.cfg.CPUMult)-1, len(s.cores)
		for due |= s.wheel.PopDue(); due&ctrls != 0; due |= s.wheel.PopDue() {
			ch := bits.TrailingZeros64(due)
			due &^= 1 << uint(ch)
			s.ctrlTurn = ch
			s.catchUpCtrl(ch, m)
		}
		s.ctrlTurn = 0
		s.memCycle = m + 1

		// Boundaries, observed after the cycle exactly like the
		// reference loop's bookkeeping.
		if due&warmup != 0 {
			s.catchUpAll(m)
			s.snapWarm()
		}
		if due&sampler != 0 {
			s.catchUpAll(m)
			s.cutCycleSample()
			s.publishSamples()
			s.wheel.Schedule(s.samplerActor(), s.nextCut+s.cfg.SampleInterval-1)
		}
		if due&budget != 0 {
			break
		}
		if s.memCycle >= poll {
			if s.cancelled = ctx.Err() != nil; s.cancelled {
				break
			}
			poll = s.memCycle + cancelCheckMask + 1
		}
		// A core due by the next cycle has not finished.
		if s.active == 0 && s.done() {
			break
		}
	}
	s.catchUpAll(s.memCycle - 1)
	for _, ctrl := range s.ctrls {
		ctrl.FinishSampling()
	}
	s.finishCycleSample()
	s.publishSamples()
	s.notifyDone()
	return s.result()
}

// startLoop registers every actor for the event loop: the controllers
// and the first core events at cycle 0, the boundaries on the last cycle
// before them.
func (s *System) startLoop() {
	s.wheel = sched.New()
	s.ctrlTicked = make([]int64, s.channels)
	s.ctrlNext = make([]int64, s.channels)
	for ch := range s.ctrlTicked {
		s.ctrlTicked[ch] = -1
		s.wheel.Schedule(ch, 0)
	}
	if s.cfg.WarmupMemCycles > 0 {
		s.wheel.Schedule(s.warmupActor(), s.cfg.WarmupMemCycles-1)
	}
	if s.cfg.SampleInterval > 0 {
		s.wheel.Schedule(s.samplerActor(), s.cfg.SampleInterval-1)
	}
	if s.cfg.MaxMemCycles > 0 {
		s.wheel.Schedule(s.budgetActor(), s.cfg.MaxMemCycles-1)
	}
	s.clocks = make([]coreClock, len(s.cores))
	wake := s.wake
	for i, core := range s.cores {
		core.SetWake(wake)
		s.clocks[i].next = core.NextEventCycle(0)
		s.place(i)
	}
}

// tickCores simulates the CPU subcycles of memory cycle m. Each due core
// first replays the cycles it owes, then ticks, then derives its next
// event; a core whose next event lies beyond the next memory cycle
// leaves the active set for the wheel, so a core that is busy every
// cycle never touches the wheel.
func (s *System) tickCores(m int64) {
	mult := int64(s.cfg.CPUMult)
	park := (m + 2) * mult
	for cpu := m * mult; cpu < park-mult; cpu++ {
		s.tickCPU = cpu
		// The mask is re-read after every core: a core woken in this
		// subcycle joins it if it comes later in core order.
		for mask := s.active; mask != 0; mask = s.active &^ (2<<uint(s.tickCore) - 1) {
			i := bits.TrailingZeros64(mask)
			s.tickCore = i
			cl := &s.clocks[i]
			if cl.next > cpu {
				continue
			}
			core := s.cores[i]
			if cl.from < cpu {
				core.FastForward(cl.from, cpu-cl.from)
			}
			cl.from = cpu + 1
			core.CPUCycle(cpu)
			if cl.next = core.NextEventCycle(cpu + 1); cl.next >= park {
				s.place(i)
			}
		}
		s.tickCore = len(s.cores)
		if s.hier.Pending() {
			s.hier.Tick(cpu)
		} else if s.active == 0 {
			return // nothing left to tick this memory cycle
		}
	}
}

// place files core i by its next event: in the active set when it is due
// by the memory cycle after s.memCycle, otherwise as a wheel actor — or
// nowhere, when only a memory completion can give it one.
func (s *System) place(i int) {
	bit := uint64(1) << uint(i)
	next := s.clocks[i].next
	mult := int64(s.cfg.CPUMult)
	switch {
	case next < (s.memCycle+2)*mult:
		s.active |= bit
		s.wheel.Cancel(s.coreActor(i))
	case next == math.MaxInt64:
		s.active &^= bit
		s.wheel.Cancel(s.coreActor(i))
	default:
		s.active &^= bit
		s.wheel.Schedule(s.coreActor(i), next/mult)
	}
}

// wake is the cores' wake hook: a memory completion is about to change
// core i's state, so the core becomes due at the first (CPU cycle, core)
// slot after the one being simulated — this CPU cycle if it comes later
// in core order, else the next one — exactly where the reference loop
// first ticks it with the completion visible. The cycles it owes before
// that are replayed now, under the state that proved them.
func (s *System) wake(i int) {
	due := s.tickCPU
	if i <= s.tickCore {
		due++
	}
	cl := &s.clocks[i]
	due = min(due, cl.next)
	if cl.from < due {
		s.cores[i].FastForward(cl.from, due-cl.from)
		cl.from = due
	}
	cl.next = due
	s.place(i)
}

// syncCores replays every core's owed cycles up to the current memory
// cycle, so cycle stacks and statistics can be read (sample cuts, the
// final result), and re-derives each replayed core's next event.
func (s *System) syncCores() {
	upto := s.memCycle * int64(s.cfg.CPUMult)
	for i := range s.clocks {
		cl := &s.clocks[i]
		if cl.from >= upto {
			continue
		}
		s.cores[i].FastForward(cl.from, upto-cl.from)
		cl.from = upto
		cl.next = s.cores[i].NextEventCycle(upto)
		s.place(i)
	}
}

// catchUpCtrl brings controller ch up to date through memory cycle
// target: quiet gaps (cycles before the controller's next real event,
// pure refresh waits followed by idle) are replayed in closed form,
// everything else is ticked normally. Replaying later is byte-identical
// to ticking inline because no requests arrived in between (enqueues
// catch the controller up first), so the controller's evolution over the
// gap is closed.
func (s *System) catchUpCtrl(ch int, target int64) {
	ticked := false
	for s.ctrlTicked[ch] < target {
		t := s.ctrlTicked[ch] + 1
		if next := s.ctrlNext[ch]; t < next {
			end := target
			if next-1 < end {
				end = next - 1
			}
			s.ctrls[ch].FastForwardQuiet(t, end)
			s.ctrlTicked[ch] = end
		} else {
			s.ctrls[ch].Tick(t)
			s.ctrlTicked[ch] = t
			s.ctrlNext[ch] = s.ctrls[ch].NextEventCycle(t)
			ticked = true
		}
	}
	if ticked {
		s.wheel.Schedule(ch, s.ctrlNext[ch])
	}
}

// catchUpAll brings every controller up to date through memory cycle
// target (before anything reads controller-side stacks or samples).
func (s *System) catchUpAll(target int64) {
	for ch := range s.ctrls {
		s.catchUpCtrl(ch, target)
	}
}

// runSlow is the reference per-cycle loop: every component ticks on
// every DRAM cycle, exactly as the seed implementation did. It is the
// default under -tags=slowtick and the baseline the golden-equivalence
// tests compare the fast-forwarding loop against.
func (s *System) runSlow(ctx context.Context) *Result {
	done := ctx.Done()
	for {
		m := s.memCycle
		for c := 0; c < s.cfg.CPUMult; c++ {
			cpuNow := m*int64(s.cfg.CPUMult) + int64(c)
			for _, core := range s.cores {
				core.CPUCycle(cpuNow)
			}
			s.hier.Tick(cpuNow)
		}
		for _, ctrl := range s.ctrls {
			ctrl.Tick(m)
		}
		s.memCycle++

		if s.cfg.WarmupMemCycles > 0 && !s.warmed && s.memCycle >= s.cfg.WarmupMemCycles {
			s.snapWarm()
		}
		if s.cfg.SampleInterval > 0 && s.memCycle-s.nextCut >= s.cfg.SampleInterval {
			s.cutCycleSample()
			s.publishSamples()
		}
		if s.cfg.MaxMemCycles > 0 && s.memCycle >= s.cfg.MaxMemCycles {
			break
		}
		if done != nil && s.memCycle&cancelCheckMask == 0 {
			select {
			case <-done:
				s.cancelled = true
			default:
			}
			if s.cancelled {
				break
			}
		}
		if s.done() {
			break
		}
	}
	for _, ctrl := range s.ctrls {
		ctrl.FinishSampling()
	}
	s.finishCycleSample()
	s.publishSamples()
	s.notifyDone()
	return s.result()
}

// publishSamples delivers any newly cut per-channel samples to the
// observers, aggregated across channels (all channels sample on the
// same cycle grid, so index i lines up), then reports progress.
func (s *System) publishSamples() {
	if len(s.observers) == 0 {
		return
	}
	n := len(s.ctrls[0].Samples())
	for _, ctrl := range s.ctrls[1:] {
		if k := len(ctrl.Samples()); k < n {
			n = k
		}
	}
	published := n > s.published
	for i := s.published; i < n; i++ {
		merged := s.ctrls[0].Samples()[i]
		for _, ctrl := range s.ctrls[1:] {
			sc := ctrl.Samples()[i]
			merged.BW.Add(sc.BW)
			merged.Lat.Add(sc.Lat)
		}
		for _, o := range s.observers {
			o.Sample(merged)
		}
	}
	s.published = n
	if published {
		for _, o := range s.observers {
			o.Progress(s.memCycle, s.cfg.MaxMemCycles)
		}
	}
}

// notifyDone tells the observers the run ended: Cancelled first when the
// context stopped it early, then a final Progress with the last
// simulated memory cycle.
func (s *System) notifyDone() {
	for _, o := range s.observers {
		if s.cancelled {
			o.Cancelled(s.memCycle)
		}
		o.Progress(s.memCycle, s.cfg.MaxMemCycles)
	}
}

func (s *System) done() bool {
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
	}
	for _, ctrl := range s.ctrls {
		if ctrl.Pending() {
			return false
		}
	}
	return !s.hier.Pending()
}

func (s *System) aggregateCycleStack() cyclestack.Stack {
	var agg cyclestack.Stack
	for _, c := range s.cores {
		agg.Add(c.Stack())
	}
	return agg
}

func (s *System) cutCycleSample() {
	s.syncCores()
	cur := s.aggregateCycleStack()
	s.cycleSamples = append(s.cycleSamples, cur.Sub(s.lastCycle))
	s.lastCycle = cur
	s.nextCut = s.memCycle
}

func (s *System) finishCycleSample() {
	if s.cfg.SampleInterval <= 0 || s.memCycle == s.nextCut {
		return
	}
	s.cutCycleSample()
}

// snapWarm records every controller's stacks at the warmup boundary so
// the reported stacks cover only the post-warmup interval. Per-source
// splits are snapshotted alongside (nil entries without a QoS policy).
func (s *System) snapWarm() {
	for _, ctrl := range s.ctrls {
		s.warmBW = append(s.warmBW, ctrl.BandwidthStack())
		s.warmLat = append(s.warmLat, ctrl.LatencyStack())
		s.warmSrcBW = append(s.warmSrcBW, ctrl.SourceStacks())
		s.warmSrcLat = append(s.warmSrcLat, ctrl.SourceLatencyStacks())
	}
	s.warmed = true
}

// Result carries everything an experiment reports.
type Result struct {
	Cfg Config
	// Channels is the number of independently timed memory devices the
	// run instantiated: addressed channels × sub-channels, so an HBM
	// pseudo-channel counts like a channel here (it has its own
	// controller, stacks and peak bandwidth contribution).
	Channels  int
	MemCycles int64
	// Cancelled reports that RunContext stopped early because its
	// context was cancelled; the stacks cover only the cycles simulated.
	Cancelled bool

	// BW and Lat cover the post-warmup interval, aggregated over all
	// channels (BW keeps the "components sum to total cycles" semantics;
	// the GB/s conversions below scale to the total peak bandwidth).
	BW  stacks.BandwidthStack
	Lat stacks.LatencyStack

	// PerChannelBW and PerChannelStats break the aggregate down per
	// memory controller (paper §IV: stacks per controller, aggregated
	// afterwards).
	PerChannelBW    []stacks.BandwidthStack
	PerChannelStats []memctrl.Stats

	// PerSourceBW and PerSourceLat split the post-warmup stacks by QoS
	// source (rows 0..n-1 for the sources, a final stacks.SourceShared
	// row for unattributed cycles), aggregated over channels. Both are
	// nil unless a QoS policy was configured; the rows sum to BW / Lat
	// cycle-exactly.
	PerSourceBW  []stacks.SourceStack
	PerSourceLat []stacks.LatencyStack

	// Through-time samples (whole run, including warmup), aggregated
	// over channels.
	BWSamples    []stacks.Sample
	CycleSamples []cyclestack.Stack

	// LatHist is the distribution of total read latencies over all
	// channels (whole run, including warmup).
	LatHist stacks.LatencyHistogram

	CycleStacks []cyclestack.Stack // per core, whole run
	CoreStats   []cpu.Stats
	CtrlStats   memctrl.Stats // summed over channels
	DevStats    dram.Stats    // summed over channels
	LLCStats    cache.LevelStats
	HierStats   cache.HierStats

	Violations []dram.Violation
}

func (s *System) result() *Result {
	s.syncCores()
	r := &Result{
		Cfg:          s.cfg,
		Channels:     s.channels,
		MemCycles:    s.memCycle,
		Cancelled:    s.cancelled,
		LLCStats:     s.hier.LLCStats(),
		HierStats:    s.hier.Stats(),
		Violations:   s.violations,
		CycleSamples: s.cycleSamples,
	}
	for ch, ctrl := range s.ctrls {
		bw := ctrl.BandwidthStack()
		lat := ctrl.LatencyStack()
		if s.warmed {
			bw = bw.Sub(s.warmBW[ch])
			lat = lat.Sub(s.warmLat[ch])
		}
		r.PerChannelBW = append(r.PerChannelBW, bw)
		r.PerChannelStats = append(r.PerChannelStats, ctrl.Stats())
		if srcBW := ctrl.SourceStacks(); srcBW != nil {
			srcLat := ctrl.SourceLatencyStacks()
			if s.warmed {
				for i := range srcBW {
					srcBW[i] = srcBW[i].Sub(s.warmSrcBW[ch][i])
					srcLat[i] = srcLat[i].Sub(s.warmSrcLat[ch][i])
				}
			}
			if r.PerSourceBW == nil {
				r.PerSourceBW, r.PerSourceLat = srcBW, srcLat
			} else {
				for i := range srcBW {
					r.PerSourceBW[i].Add(srcBW[i])
					r.PerSourceLat[i].Add(srcLat[i])
				}
			}
		}
		r.BW.Add(bw)
		r.Lat.Add(lat)
		addCtrlStats(&r.CtrlStats, ctrl.Stats())
		addDevStats(&r.DevStats, s.devs[ch].Stats())
		r.LatHist.Merge(ctrl.LatencyHistogram())
		r.BWSamples = mergeSamples(r.BWSamples, ctrl.Samples())
	}
	r.BW.Banks = s.cfg.Geom.TotalBanks()
	for _, c := range s.cores {
		r.CycleStacks = append(r.CycleStacks, c.Stack())
		r.CoreStats = append(r.CoreStats, c.Stats())
	}
	return r
}

func addCtrlStats(dst *memctrl.Stats, src memctrl.Stats) {
	dst.EnqueuedReads += src.EnqueuedReads
	dst.EnqueuedWrites += src.EnqueuedWrites
	dst.ForwardedReads += src.ForwardedReads
	dst.CoalescedWrites += src.CoalescedWrites
	dst.IssuedReads += src.IssuedReads
	dst.IssuedWrites += src.IssuedWrites
	dst.Refreshes += src.Refreshes
	dst.PageHits += src.PageHits
	dst.PageEmpty += src.PageEmpty
	dst.PageMiss += src.PageMiss
	dst.DrainEntries += src.DrainEntries
	dst.ReadQueueCycles += src.ReadQueueCycles
	dst.WriteQueueCycles += src.WriteQueueCycles
	dst.Cycles += src.Cycles
	if src.MaxReadQueue > dst.MaxReadQueue {
		dst.MaxReadQueue = src.MaxReadQueue
	}
	if src.MaxWriteQueue > dst.MaxWriteQueue {
		dst.MaxWriteQueue = src.MaxWriteQueue
	}
	for i := range src.BankAccesses {
		dst.BankAccesses[i] += src.BankAccesses[i]
	}
}

func addDevStats(dst *dram.Stats, src dram.Stats) {
	dst.ACT += src.ACT
	dst.PRE += src.PRE
	dst.AutoPRE += src.AutoPRE
	dst.RD += src.RD
	dst.WR += src.WR
	dst.REF += src.REF
}

// mergeSamples adds per-channel sample series element-wise (all channels
// sample on the same cycle grid).
func mergeSamples(dst, src []stacks.Sample) []stacks.Sample {
	if dst == nil {
		return append(dst, src...)
	}
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i].BW.Add(src[i].BW)
		dst[i].Lat.Add(src[i].Lat)
	}
	return dst
}

// PeakGBps returns the total peak bandwidth across all channels.
func (r *Result) PeakGBps() float64 {
	return r.Cfg.Geom.PeakBandwidthGBs() * float64(r.Channels)
}

// AchievedGBps returns the post-warmup achieved bandwidth summed over
// all channels.
func (r *Result) AchievedGBps() float64 {
	return r.BW.AchievedGBps(r.Cfg.Geom) * float64(r.Channels)
}

// BWGBps returns the post-warmup bandwidth stack in GB/s, scaled so the
// components sum to the total (all-channel) peak bandwidth.
func (r *Result) BWGBps() [stacks.NumBWComponents]float64 {
	g := r.BW.GBps(r.Cfg.Geom)
	for c := range g {
		g[c] *= float64(r.Channels)
	}
	return g
}

// LatNS returns the post-warmup average latency stack in ns.
func (r *Result) LatNS() [stacks.NumLatComponents]float64 { return r.Lat.AvgNS(r.Cfg.Geom) }

// TotalRetired sums committed uops over all cores.
func (r *Result) TotalRetired() int64 {
	var t int64
	for _, cs := range r.CoreStats {
		t += cs.Retired
	}
	return t
}

// RuntimeMS returns the simulated wall-clock time in milliseconds.
func (r *Result) RuntimeMS() float64 {
	return r.Cfg.Geom.CyclesToNS(r.MemCycles) / 1e6
}
