package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"dramstacks/internal/exp"
)

// job is one generated submission: the JSON body the daemon receives,
// the spec it must decode to, and that spec's content address.
type job struct {
	Body []byte
	Spec exp.Spec
	Hash string
	// Readback is another body of the same spec (see reordered), for
	// reading the job's result back through the cache; nil where the
	// workload does not read back.
	Readback []byte
	fields   []field
}

type field struct {
	key string
	val any
}

// gen makes every input of a run from the benchmark seed. The daemon
// sees only the bodies it produces.
type gen struct{ rng *rand.Rand }

func newGen(seed int64, workload string) *gen {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &gen{rng: rand.New(rand.NewPCG(uint64(seed), h.Sum64()))}
}

// body encodes fields as a JSON object in a seeded random key order.
func (g *gen) body(fields []field) []byte {
	order := g.rng.Perm(len(fields))
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range order {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, _ := json.Marshal(fields[k].key)
		vb, _ := json.Marshal(fields[k].val)
		b.Write(kb)
		b.WriteByte(':')
		b.Write(vb)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// newJob builds a job from its fields and resolves its spec and hash
// through the same decoder the daemon uses.
func (g *gen) newJob(fields ...field) (job, error) {
	j := job{fields: fields, Body: g.body(fields)}
	spec, err := exp.DecodeSpec(j.Body)
	if err != nil {
		return j, fmt.Errorf("generated spec %s: %w", j.Body, err)
	}
	j.Spec = spec.Normalized()
	if j.Hash, err = j.Spec.Hash(); err != nil {
		return j, fmt.Errorf("generated spec %s: %w", j.Body, err)
	}
	return j, nil
}

// reordered returns another body of the same spec: keys shuffled and the
// schema version spelled out, so it must hash to j.Hash and hit the
// result cache.
func (g *gen) reordered(j job) []byte {
	return g.body(append([]field{{"version", exp.SpecVersion}}, j.fields...))
}

// pick returns one of xs.
func pick[T any](g *gen, xs ...T) T { return xs[g.rng.IntN(len(xs))] }

// --- standards-sweep -------------------------------------------------

// sweepStandards are the DRAM standards of the sweep: the five
// single-rank presets of examples/sweeps/standards.json.
var sweepStandards = []string{"ddr4-2400", "ddr4-3200", "ddr5-4800", "lpddr5-6400", "hbm2-2000"}

// sweepPlan is one round of standards-sweep: a sweep document and the
// points the daemon must expand it to.
type sweepPlan struct {
	Body   []byte
	Points []job // index-aligned with the daemon's expansion
}

// sweepStores is the store fraction of every sweep point: stores put
// write drains beside the reads in memctrl.
const sweepStores = 0.2

// sweepOffset draws the seed's budget offset once per run; it moves the
// timed loop by under 5% of a prewarm-dominated point.
func (g *gen) sweepOffset() int64 { return int64(g.rng.IntN(2000)) }

// sweepRound returns one round's sweep. Rounds differ by one cycle of
// budget, so each misses the cache while all cost the same, and the
// traced and untraced rounds of a traced run simulate the same work.
func (g *gen) sweepRound(offset int64, round int) (sweepPlan, error) {
	budget := 40_000 + offset + int64(round)
	doc := map[string]any{
		"version": exp.SpecVersion,
		"base":    map[string]any{"workload": "seq", "stores": sweepStores, "cycles": budget},
		"axes": map[string]any{
			"standard": sweepStandards,
			"cores":    []int{1, 2},
			"workload": []string{"seq", "random"},
		},
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return sweepPlan{}, err
	}
	sw, err := exp.ParseSweep(body)
	if err != nil {
		return sweepPlan{}, err
	}
	pts, err := sw.Expand()
	if err != nil {
		return sweepPlan{}, err
	}
	plan := sweepPlan{Body: body}
	for _, p := range pts {
		s := p.Spec
		j, err := g.newJob(
			field{"workload", s.Workload}, field{"cores", s.Cores}, field{"stores", s.Stores},
			field{"cycles", s.Budget}, field{"standard", s.Standard})
		if err != nil {
			return plan, err
		}
		if j.Hash != p.Hash {
			return plan, fmt.Errorf("sweep point %s: single-job body hashes to %.12s, sweep to %.12s", p.Label(), j.Hash, p.Hash)
		}
		j.Readback = g.reordered(j)
		plan.Points = append(plan.Points, j)
	}
	return plan, nil
}

// --- loop-mix --------------------------------------------------------

// loopTemplates are the loop-mix jobs of one round: mixes and GAP
// kernels, none of which prewarms, so the event loop does the work.
// Budgets are memory cycles before the per-round offset.
var loopTemplates = []struct {
	fields []field
	budget int64
}{
	{[]field{{"workload", "seq,random"}, {"cores", 2}}, 200_000},
	{[]field{{"workload", "copy,triad"}, {"cores", 2}}, 150_000},
	{[]field{{"workload", "strided,seq,random,copy"}, {"cores", 4}}, 80_000},
	{[]field{{"workload", "latcrit,bwhog"}, {"cores", 2}, {"qos", "win=2048,cap=1:16,rt=0"}}, 200_000},
	{[]field{{"workload", "latcrit,bwhog"}, {"cores", 4}, {"qos", "win=4096,cap=1:8,rt=0"}}, 100_000},
	{[]field{{"workload", "latcrit,latcrit"}, {"cores", 2}}, 800_000},
	{[]field{{"workload", "latcrit,latcrit"}, {"cores", 1}}, 800_000},
	{[]field{{"workload", "add,scale"}, {"cores", 2}, {"sample", 20_000}}, 150_000},
	{[]field{{"workload", "seq,random"}, {"cores", 4}, {"channels", 2}, {"sample", 25_000}}, 100_000},
	{[]field{{"workload", "bfs"}, {"cores", 2}, {"scale", gapScale}}, 300_000},
	{[]field{{"workload", "pr"}, {"cores", 2}, {"scale", gapScale}}, 150_000},
	{[]field{{"workload", "tc"}, {"cores", 2}, {"scale", gapScale}}, 150_000},
}

// gapScale is the reduced Kronecker scale of the GAP jobs.
const gapScale = 12

// loopOffsets draws once per run a budget offset of under 1% for each
// template.
func (g *gen) loopOffsets() []int64 {
	off := make([]int64, len(loopTemplates))
	for i, t := range loopTemplates {
		off[i] = int64(g.rng.IntN(int(t.budget / 100)))
	}
	return off
}

// loopRound returns one round's jobs in template order. A template's
// budget is its base plus the run's offset plus the round, so every job
// is distinct (a cache miss) while a round costs the same, and pairs the
// same jobs at the worker, from seed to seed.
func (g *gen) loopRound(off []int64, round int) ([]job, error) {
	var jobs []job
	for i, t := range loopTemplates {
		budget := t.budget + off[i] + int64(round)
		fields := append(append([]field(nil), t.fields...), field{"cycles", budget})
		j, err := g.newJob(fields...)
		if err != nil {
			return nil, err
		}
		j.Readback = g.reordered(j)
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// loopWarmup are the untimed set-up jobs of loop-mix: every template
// once at a twentieth of its budget, which also builds the GAP graphs
// before timing starts.
func (g *gen) loopWarmup() ([]job, error) {
	var jobs []job
	for _, t := range loopTemplates {
		j, err := g.newJob(append(append([]field(nil), t.fields...), field{"cycles", t.budget / 20})...)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// --- journal probe -------------------------------------------------

// probeKinds are the short mix jobs (no prewarm) the journal probe
// completes and then resubmits as cache hits.
var probeKinds = []string{"seq,random", "copy,triad", "latcrit,bwhog", "strided,seq"}

func (g *gen) probeJob(i int) (job, error) {
	return g.newJob(field{"workload", probeKinds[i%len(probeKinds)]},
		field{"cores", 1 + i%2}, field{"cycles", 3_000 + int64(i)})
}
