package sim

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"dramstacks/internal/cpu"
)

// prewarmMemoBytes caps the bytes the prewarm memo retains. A warmed
// paper machine encodes to about 0.4–0.55 MB at one or two cores and
// about 1 MB at eight, so the cap holds every warm state of a typical
// sweep; least recently used states are dropped beyond it.
const prewarmMemoBytes = 4 << 20

// Functional prewarm reads only the cache hierarchy configuration, the
// prewarm quota and the sources: nothing on the DRAM side (standard,
// channels, mapping, page policy, QoS), nor the budget, warmup or
// sampling, can change its outcome. Machines that share those inputs —
// every point of a DRAM-side sweep, every service job on the same
// workload — therefore share one warm state. The memo keeps that state
// per process as a compact cache.Hierarchy snapshot plus a clone of
// each core's source as warming left it (cpu.WarmKeyer.CloneWarm). A
// later machine restores the snapshot and copies the clones into its
// fresh sources instead of warming again: no item is regenerated. Both
// paths leave the machine byte-identical.
//
// Only sources implementing cpu.WarmKeyer take part; a machine with any
// other source (traces, test slices, GAP barrier sources) warms cold.

// warmState is one memoized warm-up.
type warmState struct {
	key        string
	snap       []byte          // cache.Hierarchy.Snapshot after warming
	sources    []cpu.WarmKeyer // each core's source after warming (CloneWarm)
	sourceSize int64           // bytes the source clones retain
}

func (w *warmState) size() int64 {
	return int64(len(w.key)+len(w.snap)) + w.sourceSize
}

// warmMemo is a byte-bounded LRU of warm states, shared by every System
// built in the process.
type warmMemo struct {
	mu    sync.Mutex
	byKey map[string]*list.Element // values of lru are *warmState
	lru   list.List                // front = most recently used
	bytes int64

	hits, misses atomic.Int64
}

var prewarmMemo = warmMemo{byKey: make(map[string]*list.Element)}

func (m *warmMemo) get(key string) *warmState {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.byKey[key]
	if !ok {
		return nil
	}
	m.lru.MoveToFront(e)
	return e.Value.(*warmState)
}

func (m *warmMemo) put(w *warmState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byKey[w.key]; ok || w.size() > prewarmMemoBytes {
		return // a concurrent identical warm-up stored it first, or it can never fit
	}
	m.byKey[w.key] = m.lru.PushFront(w)
	m.bytes += w.size()
	for m.bytes > prewarmMemoBytes {
		old := m.lru.Remove(m.lru.Back()).(*warmState)
		delete(m.byKey, old.key)
		m.bytes -= old.size()
	}
}

// PrewarmMemoStats reports how many warm-ups the process-wide prewarm
// memo served (hits) and had to run and record (misses), and the bytes
// it currently retains. These are host-side counters for monitoring;
// they never enter a Result.
func PrewarmMemoStats() (hits, misses, bytes int64) {
	prewarmMemo.mu.Lock()
	bytes = prewarmMemo.bytes
	prewarmMemo.mu.Unlock()
	return prewarmMemo.hits.Load(), prewarmMemo.misses.Load(), bytes
}

// ResetPrewarmMemo drops every retained warm state, so the next machine
// of each kind warms cold again. It is meant for benchmark harnesses
// that time functional prewarm itself and must not let one repetition
// reuse another's work (cmd/simbench calls it before every timed run).
// Results never depend on it; the hit and miss counters keep counting.
func ResetPrewarmMemo() {
	prewarmMemo.mu.Lock()
	defer prewarmMemo.mu.Unlock()
	clear(prewarmMemo.byKey)
	prewarmMemo.lru.Init()
	prewarmMemo.bytes = 0
}

// warmKey returns the memo key of warming sources under cfg: a hash of
// the hierarchy configuration, the prewarm quota and every source's
// WarmKey in core order. It reports false when some source cannot be
// restored — it has no key, has already been consumed, or is shared by
// two cores (their interleaved draws would not match two fresh sources
// with the same key).
func warmKey(cfg Config, sources []cpu.Source) (string, bool) {
	h := sha256.New()
	fmt.Fprintf(h, "%#v\x00%d", cfg.Hier, cfg.PrewarmOps)
	for i, src := range sources {
		wk, ok := src.(cpu.WarmKeyer)
		if !ok || !reflect.TypeOf(src).Comparable() {
			return "", false
		}
		k, ok := wk.WarmKey()
		if !ok {
			return "", false
		}
		for _, prev := range sources[:i] {
			if prev == src {
				return "", false
			}
		}
		fmt.Fprintf(h, "\x00%d:%s", len(k), k)
	}
	return string(h.Sum(nil)), true
}

// warmStart brings the caches and sources to their post-prewarm state:
// from the memo when an identical warm-up already ran in this process,
// otherwise by warming and recording the outcome.
func (s *System) warmStart(sources []cpu.Source) error {
	key, ok := warmKey(s.cfg, sources)
	if !ok {
		s.prewarm(sources)
		return nil
	}
	if w := prewarmMemo.get(key); w != nil {
		prewarmMemo.hits.Add(1)
		if err := s.hier.Restore(w.snap); err != nil {
			return fmt.Errorf("sim: restoring memoized prewarm: %w", err)
		}
		for i, src := range sources {
			src.(cpu.WarmKeyer).RestoreWarm(w.sources[i])
		}
		return nil
	}
	prewarmMemo.misses.Add(1)
	s.prewarm(sources)
	snap, err := s.hier.Snapshot()
	if err != nil {
		return nil // the machine is warm; its state just is not memoized
	}
	w := &warmState{key: key, snap: snap, sources: make([]cpu.WarmKeyer, len(sources))}
	for i, src := range sources {
		var n int64
		w.sources[i], n = src.(cpu.WarmKeyer).CloneWarm()
		w.sourceSize += n
	}
	prewarmMemo.put(w)
	return nil
}
