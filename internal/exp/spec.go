package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"dramstacks/internal/cpu"
	"dramstacks/internal/dram"
	"dramstacks/internal/dram/standard"
	"dramstacks/internal/gap"
	"dramstacks/internal/memctrl"
	"dramstacks/internal/qos"
	"dramstacks/internal/sim"
	"dramstacks/internal/stacks"
	"dramstacks/internal/workload"
)

// DefaultBudget is the memory-cycle budget a spec gets when none is
// given (mirrors the cmd/dramstacks -cycles flag default).
const DefaultBudget = 500_000

// BudgetUnlimited requests running the workload to completion instead of
// stopping on a cycle budget (only meaningful for finite workloads such
// as GAP kernels and traces).
const BudgetUnlimited = -1

// SpecVersion is the current experiment-schema version. Specs and
// sweeps carry an explicit "version" field; 0 (elided) means the
// current version, anything else is rejected so that a future v2 can
// change field semantics without silently misreading old documents.
const SpecVersion = 1

// Spec is a portable, JSON-serializable experiment description shared by
// cmd/dramstacks (one flag per field) and the dramstacksd service (POST
// /v1/jobs body). The zero value of every field means "default"; see
// Normalized for the resolution rules.
type Spec struct {
	// Version is the spec-schema version (0 or SpecVersion).
	Version int `json:"version,omitempty"`
	// Workload is a synthetic pattern (seq, random, strided), a STREAM
	// kernel (copy, scale, add, triad), a GAP kernel (bc, bfs, cc, pr,
	// sssp, tc), or a comma mix of synthetic/STREAM kinds assigned to
	// cores round-robin (e.g. "seq,random").
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`    // default 1
	Channels int    `json:"channels"` // default 1
	// Stores is the store fraction for synthetic workloads (0..1).
	Stores float64 `json:"stores"`
	// Policy is the page policy: "open" or "closed" (default: open;
	// GAP kernels default closed, tc open).
	Policy string `json:"policy"`
	// Mapping is the address mapping: "def", "int" or "xor".
	Mapping string `json:"map"`
	// Standard names the DRAM standard preset the machine is built from
	// (see internal/dram/standard); "" means ddr4-2400, the paper's
	// configuration. The default is elided from the canonical encoding so
	// pre-standard specs keep their hashes.
	Standard string `json:"standard,omitempty"`
	// Budget is the memory-cycle budget. 0 means DefaultBudget;
	// BudgetUnlimited (-1) runs the workload to completion.
	Budget int64 `json:"cycles"`
	// Sample is the through-time sample interval in memory cycles
	// (0 = sampling off).
	Sample int64 `json:"sample"`
	// Scale is the Kronecker graph scale for GAP kernels (default 17).
	Scale int `json:"scale"`
	// WriteQueue overrides the write-queue capacity for GAP kernels when
	// positive (the paper's wq128 variant).
	WriteQueue int `json:"wq"`
	// QoS is the multi-tenant policy in the internal/qos grammar
	// ("win=2048,cap=1:16,rt=0"): per-core bandwidth budgets over a
	// regulation window and a real-time priority tier, with per-source
	// stack attribution. Empty (the default) disables QoS and is elided
	// from the canonical encoding, so pre-QoS specs keep their hashes.
	QoS string `json:"qos,omitempty"`
}

func isSynthWorkload(w string) bool {
	switch w {
	case "seq", "random", "strided", "latcrit", "bwhog":
		return true
	}
	return false
}

func isStreamWorkload(w string) bool {
	switch w {
	case "copy", "scale", "add", "triad":
		return true
	}
	return false
}

func isGapWorkload(w string) bool {
	for _, b := range gap.Benchmarks() {
		if b == w {
			return true
		}
	}
	return false
}

func isMixWorkload(w string) bool { return strings.Contains(w, ",") }

// Normalized resolves every defaulted field to its explicit value and
// zeroes fields that do not apply to the workload (Scale and WriteQueue
// outside GAP, Stores outside pure synthetic patterns), so that two
// specs describing the same experiment normalize identically. It is the
// basis of the canonical encoding and therefore of the spec hash.
func (s Spec) Normalized() Spec {
	n := s
	if n.Version == 0 {
		n.Version = SpecVersion
	}
	n.Workload = strings.TrimSpace(n.Workload)
	if n.Workload == "" {
		n.Workload = "seq"
	}
	if isMixWorkload(n.Workload) {
		parts := strings.Split(n.Workload, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		n.Workload = strings.Join(parts, ",")
	}
	if n.Cores == 0 {
		n.Cores = 1
	}
	// A parseable policy is rewritten in the grammar's canonical
	// directive order so equivalent spellings hash identically; an
	// unparseable one is left as-is for Validate to report.
	n.QoS = strings.TrimSpace(n.QoS)
	if q, err := qos.Parse(n.QoS, n.Cores); err == nil {
		n.QoS = q.String()
	}
	if n.Channels == 0 {
		n.Channels = 1
	}
	if n.Mapping == "" {
		n.Mapping = "def"
	}
	n.Standard = strings.ToLower(strings.TrimSpace(n.Standard))
	if n.Standard == "" {
		n.Standard = standard.DefaultName
	}
	if n.Budget == 0 {
		n.Budget = DefaultBudget
	} else if n.Budget < 0 {
		n.Budget = BudgetUnlimited
	}
	if n.Policy == "" {
		n.Policy = "open"
		if isGapWorkload(n.Workload) && n.Workload != "tc" {
			n.Policy = "closed"
		}
	}
	if isGapWorkload(n.Workload) {
		if n.Scale == 0 {
			n.Scale = 17
		}
		n.Stores = 0
	} else {
		n.Scale = 0
		n.WriteQueue = 0
		if !isSynthWorkload(n.Workload) {
			n.Stores = 0
		}
	}
	return n
}

// Validate reports a descriptive error for unusable specs. It expects a
// normalized spec; Canonical, Hash and RunSpec normalize first.
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("exp: unsupported spec version %d (this build speaks version %d)", s.Version, SpecVersion)
	}
	switch {
	case isMixWorkload(s.Workload):
		for _, kind := range strings.Split(s.Workload, ",") {
			if !isSynthWorkload(kind) && !isStreamWorkload(kind) {
				return fmt.Errorf("exp: unknown mix component %q (synthetic and STREAM kinds only)", kind)
			}
		}
	case isSynthWorkload(s.Workload), isStreamWorkload(s.Workload), isGapWorkload(s.Workload):
	default:
		return fmt.Errorf("exp: unknown workload %q (want seq, random, strided, a STREAM kernel, one of %v, or a comma mix)",
			s.Workload, gap.Benchmarks())
	}
	if s.Cores < 1 || s.Cores > 8 {
		return fmt.Errorf("exp: cores must be in 1..8, got %d", s.Cores)
	}
	if s.Channels < 1 || s.Channels > 8 {
		return fmt.Errorf("exp: channels must be in 1..8, got %d", s.Channels)
	}
	if s.Stores < 0 || s.Stores > 1 {
		return fmt.Errorf("exp: store fraction must be in 0..1, got %g", s.Stores)
	}
	switch s.Policy {
	case "open", "closed":
	default:
		return fmt.Errorf("exp: unknown policy %q (want open or closed)", s.Policy)
	}
	switch s.Mapping {
	case "def", "int", "xor":
	default:
		return fmt.Errorf("exp: unknown mapping %q (want def, int or xor)", s.Mapping)
	}
	if _, err := standard.Lookup(s.Standard); err != nil {
		return err
	}
	if s.Budget < BudgetUnlimited {
		return fmt.Errorf("exp: budget must be positive, 0 (default) or -1 (unlimited), got %d", s.Budget)
	}
	if s.Sample < 0 {
		return fmt.Errorf("exp: sample interval must be non-negative, got %d", s.Sample)
	}
	if s.WriteQueue < 0 {
		return fmt.Errorf("exp: write queue override must be non-negative, got %d", s.WriteQueue)
	}
	if isGapWorkload(s.Workload) && (s.Scale < 4 || s.Scale > 24) {
		return fmt.Errorf("exp: GAP graph scale must be in 4..24, got %d", s.Scale)
	}
	if _, err := qos.Parse(s.QoS, s.Cores); err != nil {
		return err
	}
	// Accepted means buildable: the derived machine configuration must
	// pass the simulator's own admission check (address map, controller
	// and cache configuration included), so no accepted spec can fail
	// asynchronously at build time.
	_, cfg, err := s.SimConfig()
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// Canonical returns the deterministic canonical JSON encoding of the
// spec: defaults made explicit, irrelevant fields zeroed, keys sorted,
// no insignificant whitespace. Two specs describing the same experiment
// — whatever the field order or elided defaults of their original JSON —
// canonicalize to the same bytes.
func (s Spec) Canonical() ([]byte, error) {
	n := s.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	// encoding/json sorts map keys, giving the deterministic ordering.
	m := map[string]any{
		"version":  n.Version,
		"workload": n.Workload,
		"cores":    n.Cores,
		"channels": n.Channels,
		"stores":   n.Stores,
		"policy":   n.Policy,
		"map":      n.Mapping,
		"cycles":   n.Budget,
		"sample":   n.Sample,
		"scale":    n.Scale,
		"wq":       n.WriteQueue,
	}
	// The default standard is elided so every spec written before the
	// standard field existed keeps its canonical bytes — and therefore
	// its spec hash, cache entries and journaled results.
	if n.Standard != standard.DefaultName {
		m["standard"] = n.Standard
	}
	// Likewise the empty (disabled) QoS policy, so pre-QoS specs keep
	// their hashes too.
	if n.QoS != "" {
		m["qos"] = n.QoS
	}
	return json.Marshal(m)
}

// Hash returns the content address of the spec: the hex SHA-256 of its
// canonical encoding. It keys the service result cache and is stamped
// into result JSON as spec_hash.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// Label returns the human-readable experiment label used in charts and
// result JSON, in the style of the paper figures ("sequential 4c"). A
// non-default DRAM standard is appended ("sequential 4c ddr5-4800").
func (s Spec) Label() string {
	n := s.Normalized()
	var lbl string
	switch {
	case isMixWorkload(n.Workload):
		lbl = fmt.Sprintf("mix(%s) %dc", n.Workload, n.Cores)
	case n.Workload == "latcrit", n.Workload == "bwhog":
		lbl = fmt.Sprintf("%s %dc", n.Workload, n.Cores)
	case isSynthWorkload(n.Workload):
		lbl = fmt.Sprintf("%s %dc", synthPattern(n.Workload), n.Cores)
	case isStreamWorkload(n.Workload):
		lbl = fmt.Sprintf("stream-%s %dc", n.Workload, n.Cores)
	default:
		lbl = fmt.Sprintf("%s %dc", n.Workload, n.Cores)
	}
	if n.Standard != standard.DefaultName {
		lbl += " " + n.Standard
	}
	if n.QoS != "" {
		lbl += " qos(" + n.QoS + ")"
	}
	return lbl
}

func synthPattern(w string) workload.Pattern {
	switch w {
	case "random":
		return workload.Random
	case "strided":
		return workload.Strided
	default:
		return workload.Sequential
	}
}

func streamKind(w string) workload.StreamKind {
	switch w {
	case "scale":
		return workload.StreamScale
	case "add":
		return workload.StreamAdd
	case "triad":
		return workload.StreamTriad
	default:
		return workload.StreamCopy
	}
}

// SpecStandard resolves the DRAM standard a spec runs on (the default
// standard for pre-standard specs). Callers that need per-spec geometry
// — e.g. the service's sample conversion — go through this so their view
// matches what RunSpec simulates.
func SpecStandard(s Spec) (standard.Standard, error) {
	return standard.Lookup(s.Normalized().Standard)
}

// RunOptions carries the side-channel hooks of a spec run.
type RunOptions struct {
	// Trace, if non-nil, receives every issued DRAM command.
	Trace func(cycle int64, cmd dram.Command)
	// OnSample, if non-nil, receives each through-time sample as soon as
	// it is cut (requires Spec.Sample > 0).
	OnSample func(s stacks.Sample)
}

// SimConfig derives the machine configuration a spec describes: the
// DRAM standard and the complete sim.Config, prewarm quota included. It
// is the single spec → configuration derivation — Validate checks its
// output and RunSpec builds from it — and expects a normalized spec.
// It builds nothing: no sources, graphs, devices or controllers.
func (s Spec) SimConfig() (standard.Standard, sim.Config, error) {
	std, err := standard.Lookup(s.Standard)
	if err != nil {
		return std, sim.Config{}, err
	}
	cfg := sim.DefaultFor(std, s.Cores)
	cfg.Channels = s.Channels
	switch s.Mapping {
	case "int":
		cfg.Map = sim.MapInterleaved
	case "xor":
		cfg.Map = sim.MapXOR
	}
	cfg.Ctrl.Policy = memctrl.OpenPage
	if s.Policy == "closed" {
		cfg.Ctrl.Policy = memctrl.ClosedPage
	}
	if s.QoS != "" {
		if cfg.Ctrl.QoS, err = qos.Parse(s.QoS, s.Cores); err != nil {
			return std, cfg, err
		}
	}
	cfg.MaxMemCycles = s.Budget
	if s.Budget == BudgetUnlimited {
		cfg.MaxMemCycles = 0 // sim.Config: 0 = run to completion
	}
	cfg.SampleInterval = s.Sample
	switch {
	case isMixWorkload(s.Workload):
	case isSynthWorkload(s.Workload), isStreamWorkload(s.Workload):
		cfg.PrewarmOps = 1 << 20
	default: // GAP kernel
		if s.WriteQueue > 0 {
			cfg.Ctrl.WriteQueueCap = s.WriteQueue
			cfg.Ctrl.WriteHi = s.WriteQueue * 3 / 4
			cfg.Ctrl.WriteLo = s.WriteQueue / 4
		}
	}
	return std, cfg, nil
}

// Sources builds the per-core instruction streams a normalized spec
// runs (for a GAP kernel this generates, or reuses, its graph).
func (s Spec) Sources() ([]cpu.Source, error) {
	switch {
	case isMixWorkload(s.Workload):
		return mixSources(s.Workload, s.Cores)
	case s.Workload == "latcrit" || s.Workload == "bwhog":
		return tenantSources(s.Workload, s.Cores, s.Stores), nil
	case isSynthWorkload(s.Workload):
		return sim.SyntheticSources(synthPattern(s.Workload), s.Cores, s.Stores), nil
	case isStreamWorkload(s.Workload):
		return workload.StreamSources(streamKind(s.Workload), s.Cores), nil
	default: // GAP kernel
		gs := DefaultGap(s.Workload, s.Cores)
		gs.Scale = s.Scale
		g, err := buildGraph(gs)
		if err != nil {
			return nil, err
		}
		runner, _, err := gap.Build(s.Workload, g, s.Cores)
		if err != nil {
			return nil, err
		}
		return runner.Sources(), nil
	}
}

// RunSpec normalizes and validates the spec, assembles the machine and
// runs it under ctx. Cancelling ctx stops the simulation promptly; the
// partial result is returned with Cancelled set rather than an error.
// This is the single spec→simulation path shared by cmd/dramstacks and
// the dramstacksd service, so their results are byte-identical for
// identical specs.
func RunSpec(ctx context.Context, spec Spec, opt RunOptions) (*sim.Result, error) {
	n := spec.Normalized()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	std, cfg, err := n.SimConfig()
	if err != nil {
		return nil, err
	}
	cfg.Trace = opt.Trace
	sources, err := n.Sources()
	if err != nil {
		return nil, err
	}
	opts := []sim.Option{sim.WithConfig(cfg), sim.WithSources(sources...)}
	if opt.OnSample != nil {
		opts = append(opts, sim.WithSampleFunc(opt.OnSample))
	}
	sys, err := sim.New(std, opts...)
	if err != nil {
		return nil, err
	}
	res := sys.RunContext(ctx)
	if err := checkResult(res); err != nil {
		return nil, err
	}
	return res, nil
}

// checkResult fails a result that breaks an invariant every run must
// keep, so it is never served: a DRAM timing violation, or a stack that
// does not conserve cycles (the paper's rule that the components sum to
// the total) — the aggregate bandwidth stack, any channel's, or any
// core's cycle stack.
func checkResult(res *sim.Result) error {
	if len(res.Violations) > 0 {
		return fmt.Errorf("exp: DRAM timing violation: %v", res.Violations[0])
	}
	if err := res.BW.CheckSum(); err != nil {
		return fmt.Errorf("exp: bandwidth stack not conserved: %w", err)
	}
	for i, bw := range res.PerChannelBW {
		if err := bw.CheckSum(); err != nil {
			return fmt.Errorf("exp: channel %d bandwidth stack not conserved: %w", i, err)
		}
	}
	for i, cs := range res.CycleStacks {
		if err := cs.CheckSum(); err != nil {
			return fmt.Errorf("exp: core %d cycle stack not conserved: %w", i, err)
		}
	}
	return nil
}

// tenantSources builds the QoS tenant streams ("latcrit" / "bwhog") for
// every core, each with a private region staggered by one DRAM page.
func tenantSources(kind string, cores int, stores float64) []cpu.Source {
	var sources []cpu.Source
	for i := 0; i < cores; i++ {
		wc := workload.DefaultLatCrit()
		if kind == "bwhog" {
			wc = workload.DefaultBWHog()
		}
		wc.StoreFrac = stores
		wc.BaseAddr = uint64(i)*(256<<20) + uint64(i)*8192
		wc.Seed = int64(i + 1)
		sources = append(sources, workload.MustSynthetic(wc))
	}
	return sources
}

// mixSources assigns the comma-separated workload kinds to cores
// round-robin, each with a private region staggered by one DRAM page.
func mixSources(mix string, cores int) ([]cpu.Source, error) {
	kinds := strings.Split(mix, ",")
	var sources []cpu.Source
	for i := 0; i < cores; i++ {
		kind := kinds[i%len(kinds)]
		base := uint64(i)*(512<<20) + uint64(i)*8192
		switch {
		case isSynthWorkload(kind):
			var wc workload.SyntheticConfig
			switch kind {
			case "seq":
				wc = workload.DefaultSequential()
			case "random":
				wc = workload.DefaultRandom()
			case "latcrit":
				wc = workload.DefaultLatCrit()
			case "bwhog":
				wc = workload.DefaultBWHog()
			default:
				wc = workload.DefaultStrided()
			}
			wc.BaseAddr = base
			wc.Seed = int64(i + 1)
			sources = append(sources, workload.MustSynthetic(wc))
		case isStreamWorkload(kind):
			sc := workload.DefaultStream(streamKind(kind))
			sc.BaseAddr = base
			sources = append(sources, workload.MustStream(sc))
		default:
			return nil, fmt.Errorf("exp: unknown mix component %q (synthetic and STREAM kinds only)", kind)
		}
	}
	return sources, nil
}
