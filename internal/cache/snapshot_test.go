package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"dramstacks/internal/prefetch"
)

// smallHierConfig is a hierarchy small enough that a few thousand
// operations fill, evict and re-fill every level.
func smallHierConfig(cores int, pf prefetch.Config) HierConfig {
	return HierConfig{
		Cores:        cores,
		L1:           Config{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Latency: 4},
		L2:           Config{Name: "L2", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, Latency: 14},
		LLC:          Config{Name: "LLC", SizeBytes: 24 << 10, Ways: 3, LineBytes: 64, Latency: 44},
		MSHRs:        8,
		PerCoreMSHRs: 3,
		Prefetch:     pf,
	}
}

// restoredTwin returns a fresh hierarchy restored from h's snapshot,
// over its own memory port seeded like h's.
func restoredTwin(t *testing.T, h *Hierarchy, seed int64) (*Hierarchy, *flakyMem) {
	t.Helper()
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mem := &flakyMem{rng: rand.New(rand.NewSource(seed))}
	twin := MustNewHierarchy(h.cfg, mem)
	if err := twin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	again, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, again) {
		t.Fatal("snapshot of the restored hierarchy differs from the one restored")
	}
	return twin, mem
}

// compareLevels requires identical statistics, clocks-independent
// epochs and hierarchy counters on every level of a and b.
func compareLevels(t *testing.T, step int, a, b *Hierarchy) {
	t.Helper()
	compareHier(t, step, a, b)
	la, lb := a.levels(), b.levels()
	for i := range la {
		if la[i].epoch != lb[i].epoch {
			t.Fatalf("step %d: level %d (%s) epoch %d vs %d", step, i, la[i].cfg.Name, la[i].epoch, lb[i].epoch)
		}
	}
}

// driveTwins runs an identical randomized mix of demand accesses (loads
// and stores, with retries and back pressure), functional warms, fills
// and writeback retries on a and b, comparing outcomes at every step
// and state periodically; at the end both must have issued the same
// memory traffic (so the same dirty evictions) and encode to the same
// snapshot.
func driveTwins(t *testing.T, a, b *Hierarchy, memA, memB *flakyMem, base uint64, lines, steps int) {
	t.Helper()
	cores := a.cfg.Cores
	drive := rand.New(rand.NewSource(0xca5e))
	var waitA, waitB countWaiter
	for step := 0; step < steps; step++ {
		now := int64(1_000_000 + step)
		core := drive.Intn(cores)
		addr := base + uint64(drive.Intn(lines))*64
		write := drive.Intn(3) == 0
		if drive.Intn(4) == 0 {
			a.Warm(core, addr, write)
			b.Warm(core, addr, write)
		} else {
			var wA, wB Waiter
			if !write {
				wA, wB = &waitA, &waitB
			}
			if oA, oB := a.Access(now, core, addr, write, wA), b.Access(now, core, addr, write, wB); oA != oB {
				t.Fatalf("step %d: outcome %+v vs %+v", step, oA, oB)
			}
		}
		a.Tick(now)
		b.Tick(now)
		if drive.Intn(3) == 0 {
			memA.deliverOldest(now)
			memB.deliverOldest(now)
		}
		if step%500 == 0 {
			compareLevels(t, step, a, b)
		}
	}
	for memA.deliverOldest(1 << 40) {
		memB.deliverOldest(1 << 40)
	}
	compareLevels(t, -1, a, b)
	if !reflect.DeepEqual(memA.writes, memB.writes) {
		t.Fatalf("writebacks diverged: %d vs %d", len(memA.writes), len(memB.writes))
	}
	if len(memA.reads) != len(memB.reads) {
		t.Fatalf("reads diverged: %d vs %d", len(memA.reads), len(memB.reads))
	}
	for i := range memA.reads {
		if memA.reads[i].addr != memB.reads[i].addr || memA.reads[i].at != memB.reads[i].at {
			t.Fatalf("read %d: %#x@%d vs %#x@%d", i, memA.reads[i].addr, memA.reads[i].at,
				memB.reads[i].addr, memB.reads[i].at)
		}
	}
	if !reflect.DeepEqual(waitA.dones, waitB.dones) {
		t.Fatal("waiter completions diverged")
	}
	sa, _ := a.Snapshot()
	sb, _ := b.Snapshot()
	if !bytes.Equal(sa, sb) {
		t.Fatal("final snapshots differ")
	}
}

// countSlots tallies valid and invalid ways and the flags of valid
// ones over every level.
func countSlots(h *Hierarchy) (valid, invalid, dirty, prefetched int) {
	for _, c := range h.levels() {
		for _, s := range c.slots {
			if s.enc&tagValid == 0 {
				invalid++
				continue
			}
			valid++
			if s.meta&metaDirty != 0 {
				dirty++
			}
			if s.meta&metaPrefetched != 0 {
				prefetched++
			}
		}
	}
	return
}

// TestSnapshotPartiallyFilled: a tiny warm-up leaves most ways invalid
// and every clock small, so restored ranks sit right below the clock.
func TestSnapshotPartiallyFilled(t *testing.T) {
	const seed = 11
	h := MustNewHierarchy(smallHierConfig(2, prefetch.Config{}), &flakyMem{rng: rand.New(rand.NewSource(seed))})
	for i, addr := range []uint64{0, 64, 1 << 12, 5 << 12, 64} {
		h.Warm(i%2, addr, i == 1)
	}
	valid, invalid, dirty, _ := countSlots(h)
	if valid == 0 || invalid == 0 || dirty == 0 {
		t.Fatalf("want a mix of valid, invalid and dirty ways, got %d/%d/%d", valid, invalid, dirty)
	}
	if h.l1[0].clock > 8 {
		t.Fatalf("L1 clock %d: warm-up not tiny", h.l1[0].clock)
	}
	twin, memB := restoredTwin(t, h, seed)
	driveTwins(t, h, twin, h.mem.(*flakyMem), memB, 0, 1024, 20_000)
}

// TestSnapshotFlagsAndPrefetch restores a hierarchy holding dirty lines
// and prefetched-but-unused lines (stream prefetcher on), taken between
// bursts of demand traffic rather than right after warming.
func TestSnapshotFlagsAndPrefetch(t *testing.T) {
	const seed = 5
	mem := &flakyMem{rng: rand.New(rand.NewSource(seed))}
	h := MustNewHierarchy(smallHierConfig(3, prefetch.DefaultConfig()), mem)
	for i := 0; i < 3000; i++ {
		now := int64(i)
		core := i % 3
		// Sequential per-core streams train the prefetcher; every third
		// access is a store.
		addr := uint64(core)<<20 + uint64(i/3)*64
		h.Access(now, core, addr, i%3 == 0, &countWaiter{})
		h.Tick(now)
		mem.deliverOldest(now)
	}
	for mem.deliverOldest(1 << 20) {
	}
	for h.Pending() {
		h.Tick(1 << 21)
	}
	if _, _, dirty, prefetched := countSlots(h); dirty == 0 || prefetched == 0 {
		t.Fatalf("want dirty and prefetched lines, got %d and %d", dirty, prefetched)
	}
	// Prefetcher training and hierarchy-wide counters are outside the
	// snapshot (functional warming never touches them): start both
	// twins from fresh ones.
	for i := range h.pf {
		h.pf[i] = prefetch.NewStreamer(h.cfg.Prefetch)
	}
	h.stats = HierStats{}
	twin, memB := restoredTwin(t, h, seed+1)
	*mem = flakyMem{rng: rand.New(rand.NewSource(seed + 1))}
	driveTwins(t, h, twin, mem, memB, 0, 4096, 20_000)
}

// TestSnapshotEightCoresHighAddresses restores the paper's 8-core
// hierarchy warmed with addresses near the top of a 48-bit space, whose
// tag quotients need multi-byte varints.
func TestSnapshotEightCoresHighAddresses(t *testing.T) {
	const (
		seed = 3
		base = uint64(0xfff0) << 32
	)
	mem := &flakyMem{rng: rand.New(rand.NewSource(seed))}
	h := MustNewHierarchy(DefaultHierConfig(8), mem)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200_000; i++ {
		core := i % 8
		h.Warm(core, base+uint64(core)<<28+uint64(rng.Intn(1<<16))*64, rng.Intn(4) == 0)
	}
	llc := h.llc
	setBits := uint(0)
	for llc.setMask>>setBits != 0 {
		setBits++
	}
	if q := llc.slots[0].enc >> 1 >> setBits; binary.PutUvarint(make([]byte, binary.MaxVarintLen64), q) < 4 {
		t.Fatalf("tag quotient %#x fits in under 4 varint bytes", q)
	}
	twin, memB := restoredTwin(t, h, seed)
	driveTwins(t, h, twin, mem, memB, base, 1<<17, 30_000)
}

// TestRestoreRejectsMismatch: truncated, padded or foreign snapshots
// are errors, as is restoring under in-flight traffic.
func TestRestoreRejectsMismatch(t *testing.T) {
	cfg := smallHierConfig(2, prefetch.Config{})
	h := MustNewHierarchy(cfg, &fakeMem{})
	h.Warm(0, 64, true)
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name string
		snap []byte
	}{
		{"truncated", snap[:len(snap)-1]},
		{"trailing", append(append([]byte(nil), snap...), 0)},
		{"empty", nil},
	} {
		if err := MustNewHierarchy(cfg, &fakeMem{}).Restore(bad.snap); err == nil {
			t.Errorf("%s snapshot restored without error", bad.name)
		}
	}
	if err := MustNewHierarchy(smallHierConfig(3, prefetch.Config{}), &fakeMem{}).Restore(snap); err == nil {
		t.Error("2-core snapshot restored into a 3-core hierarchy")
	}
	other := cfg
	other.LLC.Ways, other.LLC.SizeBytes = 4, 32<<10
	if err := MustNewHierarchy(other, &fakeMem{}).Restore(snap); err == nil {
		t.Error("snapshot restored into a hierarchy of another geometry")
	}
	busy := MustNewHierarchy(cfg, &fakeMem{})
	busy.Access(0, 0, 1<<12, false, &countWaiter{})
	if err := busy.Restore(snap); err == nil {
		t.Error("restored into a hierarchy with a fill in flight")
	}
}
