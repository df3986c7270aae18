package sim

import (
	"runtime"
	"sync"

	"dramstacks/internal/cache"
	"dramstacks/internal/cpu"
)

// warmBatch is the per-source buffer size used while draining
// batch-capable sources during functional warming.
const warmBatch = 64

// warmFeed drains one source for prewarm. Sources that support batch
// generation are pulled through a small buffer: the consumption order
// is unchanged — only the generation is amortized, which the
// cpu.BatchSource purity contract makes invisible. A refill is only
// taken while the source is at least a full batch short of its warm
// quota, so every generated item is consumed before the quota check can
// retire the source.
type warmFeed struct {
	src    cpu.Source
	bs     cpu.BatchSource // nil: no batch fast path, use src.Next
	items  []cpu.Instr
	pos, n int
	warmed int64 // memory operations warmed so far
	quota  int64 // PrewarmOps
}

func (f *warmFeed) next() (cpu.Instr, bool) {
	if f.bs == nil || f.pos >= f.n && f.warmed+warmBatch > f.quota {
		return f.src.Next()
	}
	if f.pos >= f.n {
		f.n = f.bs.NextBatch(f.items)
		f.pos = 0
		if f.n == 0 {
			return cpu.Instr{}, false
		}
	}
	ins := f.items[f.pos]
	f.pos++
	return ins, true
}

// prewarm consumes the head of each stream functionally so the caches
// start in steady state; the cores continue from where warming stopped.
// Sources are drained round-robin so barrier-synchronized workloads
// (package gap) make progress; stall items are skipped.
func (s *System) prewarm(sources []cpu.Source) {
	feeds := make([]warmFeed, len(sources))
	allBatch := len(sources) > 0
	for i, src := range sources {
		feeds[i] = warmFeed{src: src, quota: s.cfg.PrewarmOps}
		if bs, ok := src.(cpu.BatchSource); ok {
			feeds[i].bs = bs
			feeds[i].items = make([]cpu.Instr, warmBatch)
		} else {
			allBatch = false
		}
	}
	// Batch sources are pure: each core's stream is a function of its
	// own consumption count, with no cross-source barriers (the gap
	// barrier sources deliberately stay batch-free). The private cache
	// levels never observe the shared LLC, so with every source pure the
	// per-core warm work can run concurrently and only the LLC's
	// operation stream needs the global round-robin order — see
	// prewarmParallel. The split only pays when it can actually run
	// concurrently, so one core — or a single-processor host — keeps
	// the serial loop and its zero recording overhead.
	if allBatch && len(sources) > 1 && runtime.GOMAXPROCS(0) > 1 {
		s.prewarmParallel(feeds)
		return
	}
	exhausted := make([]bool, len(feeds))
	active := len(feeds)
	for active > 0 {
		progress := false
		for i := range feeds {
			f := &feeds[i]
			if exhausted[i] || f.warmed >= f.quota {
				if !exhausted[i] {
					exhausted[i] = true
					active--
				}
				continue
			}
			ins, ok := f.next()
			if !ok {
				exhausted[i] = true
				active--
				continue
			}
			switch ins.Kind {
			case cpu.KindLoad:
				s.hier.Warm(i, ins.Addr, false)
				f.warmed++
				progress = true
			case cpu.KindStore:
				s.hier.Warm(i, ins.Addr, true)
				f.warmed++
				progress = true
			case cpu.KindStall:
				// Barrier wait: progress only if someone else moves.
			default:
				progress = true // compute/branch item consumed
			}
		}
		if !progress {
			// Every remaining source is stalled at a barrier that a
			// finished source will never release: stop warming here.
			break
		}
	}
}

// warmChunk is the number of items each core advances per parallel
// warming phase; it bounds the recorded-LLC-operation memory.
const warmChunk = 1 << 14

// prewarmParallel is prewarm for the all-batch-source case: the
// private-level warm of every core runs in its own goroutine (disjoint
// state: the core's caches, feed and RNG), recording the shared-LLC
// operations each item emits; the LLC stream is then replayed serially
// in exactly the order the round-robin loop performs it. Because every
// active source consumes one item per round, an item's global position
// is (item index, core index) — the replay merges the per-core records
// by that key, so the final hierarchy state is identical to the serial
// loop's. Work proceeds in fixed-size chunks to bound record memory;
// cores remain item-aligned at chunk boundaries because a worker exits
// a chunk early only when its feed is done for good.
func (s *System) prewarmParallel(feeds []warmFeed) {
	type record struct {
		ops   []cache.LLCOp
		items []int32 // item index of each recorded op, ascending
		done  bool
	}
	recs := make([]record, len(feeds))
	cur := make([]int, len(feeds))
	live := len(feeds)
	var wg sync.WaitGroup
	for live > 0 {
		for i := range feeds {
			if recs[i].done {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f, r := &feeds[i], &recs[i]
				if r.ops == nil {
					r.ops = make([]cache.LLCOp, 0, warmChunk)
					r.items = make([]int32, 0, warmChunk)
				}
				r.ops, r.items = r.ops[:0], r.items[:0]
				for j := int32(0); j < warmChunk; j++ {
					if f.warmed >= f.quota {
						r.done = true
						return
					}
					ins, ok := f.next()
					if !ok {
						r.done = true
						return
					}
					if ins.Kind != cpu.KindLoad && ins.Kind != cpu.KindStore {
						continue
					}
					before := len(r.ops)
					r.ops = s.hier.WarmPrivate(i, ins.Addr, ins.Kind == cpu.KindStore, r.ops)
					for range r.ops[before:] {
						r.items = append(r.items, j)
					}
					f.warmed++
				}
			}(i)
		}
		wg.Wait()
		for j := int32(0); j < warmChunk; j++ {
			remaining := false
			for i := range recs {
				r := &recs[i]
				c := cur[i]
				for c < len(r.items) && r.items[c] == j {
					s.hier.WarmLLC(r.ops[c])
					c++
				}
				cur[i] = c
				if c < len(r.items) {
					remaining = true
				}
			}
			if !remaining {
				break
			}
		}
		live = 0
		for i := range recs {
			cur[i] = 0
			if !recs[i].done {
				live++
			}
		}
	}
}
