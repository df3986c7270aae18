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

// Config describes a full-system experiment.
//
// Constructing a Config by field literal is deprecated for callers
// outside this package: assemble systems with New(standard, ...Option)
// instead, which starts from DefaultFor and applies options. The struct
// remains exported (and DefaultFor remains the base-configuration
// helper) so existing spec-driven code keeps working via WithConfig.
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
	// OnSample, if non-nil, receives each through-time sample (aggregated
	// over all channels) as soon as it is cut, so long-running consumers
	// (e.g. the dramstacksd service) can stream progress while the
	// simulation is still executing. Requires SampleInterval > 0.
	//
	// Deprecated: attach an Observer (WithObserver / WithSampleFunc)
	// instead; OnSample remains as a shim for existing callers.
	OnSample func(s stacks.Sample)
}

// Default returns the paper's machine configuration for the given core
// count, with a cycle budget the caller usually overrides. The memory
// is the default standard from the registry (ddr4-2400, the exact
// configuration the paper evaluates).
func Default(cores int) Config {
	return DefaultFor(standard.Default(), cores)
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

	// Idle-cycle fast-forwarding state (unused when slow is set).
	// Controllers are ticked lazily: ctrlTicked is the last memory cycle
	// each controller has simulated, ctrlNext the next cycle it must
	// simulate for real (everything in between is provably idle and is
	// replayed in closed form by catchUpCtrl). slow selects the
	// per-cycle reference loop (the -tags=slowtick default).
	ctrlTicked []int64
	ctrlNext   []int64
	slow       bool

	// Sprint scratch (see sprint): per-core next-event cycle and the
	// first CPU cycle each core has not yet simulated or replayed.
	coreNext []int64
	coreFrom []int64

	// wheel is the event scheduler of the fast loop: controller actors
	// (IDs 0..channels-1) carry each controller's next real tick cycle
	// (including its refresh deadline when idle), and one actor each for
	// the budget, warmup and sampler boundaries. The main loop pops due
	// controllers per cycle and jumps straight to wheel.Earliest() when
	// every core and the cache hierarchy are provably inert.
	wheel *sched.Wheel

	// readDone is the single pre-bound read-completion callback shared
	// by every memory request (the per-request waiter travels in
	// Request.Meta), so enqueuing allocates no closures.
	readDone func(*memctrl.Request, int64)

	// memActive flags that a request reached a memory controller since
	// it was last cleared; the sprint loop uses it to detect that the
	// memory system woke up and per-cycle controller phases are needed
	// again.
	memActive bool

	observers []Observer

	cycleSamples []cyclestack.Stack
	lastCycle    cyclestack.Stack
	nextCut      int64
	published    int // per-channel samples already delivered to OnSample
	cancelled    bool

	warmBW     []stacks.BandwidthStack
	warmLat    []stacks.LatencyStack
	warmSrcBW  [][]stacks.SourceStack
	warmSrcLat [][]stacks.LatencyStack
	warmed     bool
}

// NewFromConfig assembles a system from a fully built Config running
// the given per-core instruction sources (len(sources) must equal
// cfg.Cores).
//
// Deprecated: use New(standard, WithSources(...), ...) — or, for
// spec-driven callers that already hold a Config, New(standard,
// WithConfig(cfg), WithSources(...)).
func NewFromConfig(cfg Config, sources []cpu.Source) (*System, error) {
	return newSystem(cfg, sources)
}

// newSystem assembles a system; New and NewFromConfig front it.
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
	s.ctrlTicked = make([]int64, channels)
	s.ctrlNext = make([]int64, channels)
	s.coreNext = make([]int64, cfg.Cores)
	s.coreFrom = make([]int64, cfg.Cores)
	s.wheel = sched.New()
	for ch := range s.ctrlTicked {
		s.ctrlTicked[ch] = -1
		s.wheel.Schedule(ch, 0)
	}
	if cfg.MaxMemCycles > 0 {
		s.wheel.Schedule(s.budgetActor(), cfg.MaxMemCycles)
	}
	if cfg.WarmupMemCycles > 0 {
		s.wheel.Schedule(s.warmupActor(), cfg.WarmupMemCycles)
	}
	if cfg.SampleInterval > 0 {
		s.wheel.Schedule(s.samplerActor(), cfg.SampleInterval)
	}
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

// Boundary actor IDs in the event wheel (after the controller actors).
func (s *System) budgetActor() int  { return s.channels }
func (s *System) warmupActor() int  { return s.channels + 1 }
func (s *System) samplerActor() int { return s.channels + 2 }

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

// enqueueTarget catches the addressed controller up to the cycle just
// before the current one (requests at cycle m arrive after Tick(m-1) and
// before Tick(m)) and marks it due for a real tick this cycle.
func (s *System) enqueueTarget(addr uint64) *memctrl.Controller {
	ch := s.route(addr)
	if !s.slow {
		s.catchUpCtrl(ch, s.memCycle-1)
		if s.ctrlNext[ch] > s.memCycle {
			s.ctrlNext[ch] = s.memCycle
			s.wheel.Schedule(ch, s.memCycle)
		}
	}
	return s.ctrls[ch]
}

// Read implements cache.MemPort. The waiter rides in Request.Meta and
// the completion path goes through the system's single pre-bound
// callback, so a read enqueues without allocating.
func (p *memPort) Read(nowCPU int64, addr uint64, src int, w cache.Waiter) bool {
	s := (*System)(p)
	s.memActive = true
	_, ok := s.enqueueTarget(addr).EnqueueReadFrom(s.memCycle, addr, src, s.readDone, w)
	return ok
}

// Write implements cache.MemPort.
func (p *memPort) Write(nowCPU int64, addr uint64, src int) bool {
	s := (*System)(p)
	s.memActive = true
	_, ok := s.enqueueTarget(addr).EnqueueWriteFrom(s.memCycle, addr, src, nil, nil)
	return ok
}

// Controller exposes the memory controller of channel 0 (for extra
// statistics in single-channel experiments).
func (s *System) Controller() *memctrl.Controller { return s.ctrls[0] }

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
// per-cycle loop instead of idle-cycle fast-forwarding. It defaults to
// false; building with -tags=slowtick flips the default. Both loops
// produce byte-identical results — the slow loop exists as the golden
// reference for the equivalence tests and for debugging.
var SlowTick = defaultSlowTick

// RunContext simulates like Run but additionally polls ctx every few
// memory cycles. When ctx is cancelled the run stops promptly and
// returns the partial result accumulated so far (with Cancelled set);
// warmup subtraction and through-time sampling behave exactly as on a
// normal early stop, so the partial stacks remain internally consistent.
//
// The loop fast-forwards across provably idle cycles instead of ticking
// every component every DRAM cycle (see doc/PERF.md): idle memory
// controllers are ticked lazily and their idle gaps replayed in closed
// form, and when additionally every core is in a provably repetitive
// state with nothing in flight, whole memory cycles are skipped in bulk.
// Every stack, sample and statistic stays byte-identical to the
// reference per-cycle loop (build with -tags=slowtick, or set SlowTick,
// to run it).
func (s *System) RunContext(ctx context.Context) *Result {
	if s.slow {
		return s.runSlow(ctx)
	}
	done := ctx.Done()
simLoop:
	for {
		if s.sprintable() {
			s.sprint()
		} else {
			m := s.memCycle
			// Sleep is only reachable with a demand miss in flight, so
			// TrySleep is skipped entirely on miss-free cycles.
			canSleep := s.hier.OutstandingMisses() > 0
			for c := 0; c < s.cfg.CPUMult; c++ {
				cpuNow := m*int64(s.cfg.CPUMult) + int64(c)
				for _, core := range s.cores {
					// A core sleeping through a DRAM stall is not ticked;
					// when a memory completion has arrived for it, the
					// skipped stall cycles are replayed in closed form and
					// it resumes here.
					if core.Asleep() {
						if !core.NeedsWake() {
							continue
						}
						core.Resume(cpuNow)
					}
					core.CPUCycle(cpuNow)
					if canSleep {
						core.TrySleep(cpuNow)
					}
				}
				s.hier.Tick(cpuNow)
			}
		}
		m := s.memCycle
		s.wheel.Advance(m)
		for mask := s.wheel.PopDue(); mask != 0; {
			a := bits.TrailingZeros64(mask)
			mask &^= 1 << uint(a)
			if a < s.channels {
				s.catchUpCtrl(a, m)
			}
			// Boundary actors (budget/warmup/sampler) are pure jump
			// clamps; the bookkeeping below observes their cycles.
		}
		s.memCycle++

		// Post-cycle bookkeeping; repeats after a bulk skip so every
		// boundary (warmup, sample cut, budget) is observed at exactly
		// the cycle the per-cycle loop would observe it.
		for {
			if s.cfg.WarmupMemCycles > 0 && !s.warmed && s.memCycle >= s.cfg.WarmupMemCycles {
				s.catchUpAll(s.memCycle - 1)
				s.snapWarm()
				s.wheel.Cancel(s.warmupActor())
			}
			if s.cfg.SampleInterval > 0 && s.memCycle-s.nextCut >= s.cfg.SampleInterval {
				s.catchUpAll(s.memCycle - 1)
				s.cutCycleSample()
				s.publishSamples()
				s.wheel.Schedule(s.samplerActor(), s.nextCut+s.cfg.SampleInterval)
			}
			if s.cfg.MaxMemCycles > 0 && s.memCycle >= s.cfg.MaxMemCycles {
				break simLoop
			}
			if done != nil && s.memCycle&cancelCheckMask == 0 {
				select {
				case <-done:
					s.cancelled = true
				default:
				}
				if s.cancelled {
					break simLoop
				}
			}
			if s.done() {
				break simLoop
			}
			skip := s.skipWindow()
			if skip <= s.memCycle {
				break
			}
			from := s.memCycle * int64(s.cfg.CPUMult)
			n := (skip - s.memCycle) * int64(s.cfg.CPUMult)
			for _, core := range s.cores {
				core.FastForward(from, n)
			}
			s.memCycle = skip
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

// sprintable reports whether the CPU side can run in the sprint loop:
// every memory controller is provably idle until after the next memory
// cycle (the wheel's earliest event — controller work, refresh deadline
// or a warmup/sample/budget boundary — is at least two cycles out) and
// no core is sleeping. Controllers with queued or in-flight requests
// always have their next event at the very next cycle, so a far
// earliest event implies an empty memory system, which in turn implies
// no outstanding misses and no sleeping core to resume.
func (s *System) sprintable() bool {
	if s.wheel.Earliest() <= s.memCycle+1 {
		return false
	}
	for _, core := range s.cores {
		if core.Asleep() {
			return false
		}
	}
	return true
}

// sprint simulates CPU subcycles in a tight loop while the memory
// system is empty: no controller phases, no sleep checks, no per-cycle
// bookkeeping — just core cycles, cache ticks and closed-form
// fast-forwarding at CPU-cycle granularity. It runs until the wheel's
// next event is due, or until a core request reaches a controller
// (memActive), and returns with s.memCycle at the last cycle whose
// subcycles were simulated; the caller proceeds with that cycle's
// controller phase and bookkeeping. Everything it does is byte-
// identical to the per-cycle loop: skipped cycles satisfy the cores'
// NextEventCycle contracts, and the memory cycles it covers have empty
// controller phases by the wheel invariant.
func (s *System) sprint() {
	limit := s.wheel.Earliest() - 1 // cycles m..limit have empty ctrl phases
	mult := int64(s.cfg.CPUMult)
	cpu := s.memCycle * mult
	end := (limit + 1) * mult // first CPU cycle past the sprintable range
	// Stale activity from before this sprint is already handled:
	// sprintable proved every controller idle. Only a wake-up during
	// the sprint matters below.
	s.memActive = false
	nxt, from := s.coreNext, s.coreFrom
	for i, core := range s.cores {
		nxt[i] = core.NextEventCycle(cpu)
		from[i] = cpu
	}
	for {
		// Earliest cycle any core must simulate for real. Cores are
		// independent between memory interactions, so each one is ticked
		// only on its own event cycles; the provably repetitive stretch
		// since from[i] is replayed in closed form right before, and a
		// core with no due event just accrues owed cycles.
		e := int64(math.MaxInt64)
		for _, t := range nxt {
			if t < e {
				e = t
			}
		}
		if e == math.MaxInt64 && !s.hier.Pending() {
			// Every core has committed its stream (NextEventCycle is
			// MaxInt64 only for a Done core) with nothing left in the
			// memory system: the reference loop exits at the next
			// memory-cycle boundary, not at the next wheel event, so
			// finish this memory cycle and let the caller's done() check
			// end the run on exactly the same cycle.
			b := (cpu + mult - 1) / mult * mult
			for i, core := range s.cores {
				if d := b - from[i]; d > 0 {
					core.FastForward(from[i], d)
				}
			}
			s.memCycle = b/mult - 1
			return
		}
		if e > cpu {
			j := e
			if j > end {
				j = end
			}
			if s.hier.Pending() {
				// A writeback backlog still needs its per-cycle retry;
				// core cycles stay owed.
				for cpu < j && !s.memActive {
					s.memCycle = cpu / mult
					s.hier.Tick(cpu)
					cpu++
				}
			} else {
				cpu = j
			}
		}
		if !s.memActive {
			if cpu >= end {
				for i, core := range s.cores {
					if d := end - from[i]; d > 0 {
						core.FastForward(from[i], d)
					}
				}
				s.memCycle = limit
				return
			}
			if e <= cpu {
				// Real cycle for the due cores: memPort timestamps
				// enqueues with s.memCycle, so keep it current.
				s.memCycle = cpu / mult
				for i, core := range s.cores {
					if nxt[i] > cpu {
						continue
					}
					if d := cpu - from[i]; d > 0 {
						core.FastForward(from[i], d)
					}
					core.CPUCycle(cpu)
					from[i] = cpu + 1
					nxt[i] = core.NextEventCycle(cpu + 1)
				}
				s.hier.Tick(cpu)
				cpu++
			}
		}
		if s.memActive {
			// A request reached a controller: replay every core's owed
			// cycles and finish this memory cycle's remaining subcycles,
			// so the caller can run its controller phase exactly like
			// the per-cycle loop.
			for i, core := range s.cores {
				if d := cpu - from[i]; d > 0 {
					core.FastForward(from[i], d)
				}
			}
			for cpu%mult != 0 {
				for _, core := range s.cores {
					core.CPUCycle(cpu)
				}
				s.hier.Tick(cpu)
				cpu++
			}
			s.memActive = false
			return
		}
	}
}

// skipWindow returns the first memory cycle at or after the current one
// that must be simulated cycle by cycle. A return greater than
// s.memCycle means every cycle in between is provably inert on all
// sides: every channel is idle (no queued, in-flight or refresh-pending
// work), the cache hierarchy has nothing in flight, and every core is in
// a provably repetitive state — those cycles are charged in closed form
// and skipped. The window is clamped to the next warmup, sample, budget
// and core-resume boundary so bookkeeping fires on exactly the same
// cycles as the per-cycle loop.
func (s *System) skipWindow() int64 {
	// Ordered cheapest-reject first: on a busy memory system the first
	// channel check exits, keeping the fast loop's per-cycle overhead
	// near zero when there is nothing to skip.
	m := s.memCycle
	limit := int64(0)
	for ch := range s.ctrls {
		next := s.ctrlNext[ch]
		if next <= m {
			return m
		}
		if limit == 0 || next < limit {
			limit = next
		}
	}
	mult := int64(s.cfg.CPUMult)
	cpuNow := m * mult
	for _, core := range s.cores {
		e := core.NextEventCycle(cpuNow)
		if e <= cpuNow {
			return m
		}
		if mem := e / mult; mem < limit {
			limit = mem
		}
	}
	if s.hier.Pending() {
		return m
	}
	if s.cfg.MaxMemCycles > 0 && s.cfg.MaxMemCycles < limit {
		limit = s.cfg.MaxMemCycles
	}
	if s.cfg.WarmupMemCycles > 0 && !s.warmed && s.cfg.WarmupMemCycles < limit {
		limit = s.cfg.WarmupMemCycles
	}
	if s.cfg.SampleInterval > 0 {
		if b := s.nextCut + s.cfg.SampleInterval; b < limit {
			limit = b
		}
	}
	if limit < m {
		return m
	}
	return limit
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
// observers (and the deprecated OnSample hook), aggregated across
// channels (all channels sample on the same cycle grid, so index i
// lines up), then reports progress to the observers.
func (s *System) publishSamples() {
	if s.cfg.OnSample == nil && len(s.observers) == 0 {
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
		if s.cfg.OnSample != nil {
			s.cfg.OnSample(merged)
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

// syncSleepers replays sleeping cores' skipped stall cycles up to the
// current simulation time, so cycle stacks can be read mid-sleep. A
// no-op for awake cores.
func (s *System) syncSleepers() {
	upto := s.memCycle * int64(s.cfg.CPUMult)
	for _, c := range s.cores {
		c.SyncSleep(upto)
	}
}

func (s *System) cutCycleSample() {
	s.syncSleepers()
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
	s.syncSleepers()
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
