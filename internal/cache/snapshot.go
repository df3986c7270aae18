package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Snapshot encoding of a hierarchy's cache contents, compact enough that
// a process can keep several warmed hierarchies around and restore any
// of them into a freshly built machine instead of warming it again.
//
// The encoding is a uvarint core count followed by every level in the
// order L1[0..cores), L2[0..cores), LLC. Each level is:
//
//	uvarint slots, uvarint ways
//	uvarint clock, uvarint epoch, 7 × uvarint LevelStats (exact)
//	one byte per slot: rank<<2 | dirty<<1 | prefetched, 0 for invalid
//	one uvarint per valid slot, in slot order: tag >> log2(sets)
//
// A valid way's rank is its 1-based recency position within its set
// (1 = least recently used). Replacement only ever compares the
// metadata words of ways in one set, and a restored word is exactly
// rank<<2 | flags, so every ordering the min-meta victim scan can
// observe is preserved. Every later touch or install stamps the level's
// clock, which the snapshot keeps exactly and which is at least the
// number of valid ways in any set (each holds a distinct used value in
// 1..clock), so restored ranks always sort below fresh stamps — as the
// original used values did. The set index is implied by the slot
// position, so only the tag's quotient by the set count is stored.
//
// Only the state functional warming changes is captured: slot contents,
// clocks, epochs and level statistics. MSHRs, pending writebacks,
// prefetcher training and hierarchy-wide statistics are not, so a
// snapshot of a hierarchy with memory traffic in flight describes its
// cache contents only and cannot resume that traffic.

// maxRankWays is the largest associativity whose ranks fit the slot
// byte's six rank bits.
const maxRankWays = 1<<6 - 1

// Snapshot returns the compact encoding of the hierarchy's cache
// contents (see above). It fails only for a level too associative for
// the rank byte. Equal snapshots mean the two hierarchies' caches
// behave identically from here on.
func (h *Hierarchy) Snapshot() ([]byte, error) {
	levels := h.levels()
	n := 0
	for _, c := range levels {
		if c.cfg.Ways > maxRankWays {
			return nil, fmt.Errorf("cache %s: %d ways exceed the snapshot's %d", c.cfg.Name, c.cfg.Ways, maxRankWays)
		}
		n += len(c.slots)
	}
	// One rank byte plus a short tag varint per slot; the buffer is
	// trimmed to its exact length below so a retained snapshot carries
	// no slack.
	buf := make([]byte, 0, 4*n+len(levels)*10*binary.MaxVarintLen64)
	buf = binary.AppendUvarint(buf, uint64(h.cfg.Cores))
	for _, c := range levels {
		buf = c.appendSnapshot(buf)
	}
	return append([]byte(nil), buf...), nil
}

// Restore overwrites the hierarchy's cache contents, clocks, epochs and
// level statistics with a snapshot taken from a hierarchy of the same
// configuration. It is meant for a freshly built hierarchy: the
// per-core probe hints are reset, and one with memory traffic in flight
// is refused. A restored hierarchy behaves exactly like the one the
// snapshot was taken from under every later Access, Warm or Prefetch.
// After an error the cache contents are unspecified.
func (h *Hierarchy) Restore(snap []byte) error {
	if h.Pending() {
		return errors.New("cache: restore into a hierarchy with fills or writebacks in flight")
	}
	d := decoder{buf: snap}
	if cores := d.uvarint(); d.err == nil && cores != uint64(h.cfg.Cores) {
		return fmt.Errorf("cache: snapshot of %d cores restored into %d", cores, h.cfg.Cores)
	}
	for _, c := range h.levels() {
		c.restore(&d)
	}
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return fmt.Errorf("cache: restoring snapshot: %w", d.err)
	}
	clear(h.hints)
	return nil
}

// levels lists the hierarchy's cache levels in snapshot order.
func (h *Hierarchy) levels() []*Cache {
	out := make([]*Cache, 0, 2*len(h.l1)+1)
	out = append(out, h.l1...)
	out = append(out, h.l2...)
	return append(out, h.llc)
}

func (c *Cache) appendSnapshot(buf []byte) []byte {
	for _, v := range []int64{int64(len(c.slots)), int64(c.cfg.Ways), c.clock, c.epoch} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	buf = c.stats.appendTo(buf)
	ways := c.cfg.Ways
	for set := 0; set < len(c.slots); set += ways {
		s := c.slots[set : set+ways]
		// An invalid way's metadata is zero and sorts below every valid
		// one, so a valid way's rank is one plus the number of ways
		// with smaller metadata, minus the invalid ways. The comparison
		// is counted through the sign bit of the difference (metadata
		// words are far below 2^63): recency order within a set is
		// close to random, so a branch would mispredict half the time.
		invalid := uint64(0)
		for i := range s {
			invalid += 1 - s[i].enc&tagValid
		}
		for i := range s {
			if s[i].enc&tagValid == 0 {
				buf = append(buf, 0)
				continue
			}
			rank := 1 - invalid
			for j := range s {
				rank += (s[j].meta - s[i].meta) >> 63
			}
			buf = append(buf, byte(rank<<metaUsedShift|s[i].meta&(metaDirty|metaPrefetched)))
		}
	}
	setBits := uint(bits.TrailingZeros64(c.setMask + 1))
	for i := range c.slots {
		if enc := c.slots[i].enc; enc&tagValid != 0 {
			buf = binary.AppendUvarint(buf, enc>>1>>setBits)
		}
	}
	return buf
}

func (c *Cache) restore(d *decoder) {
	if slots, ways := d.uvarint(), d.uvarint(); d.err == nil &&
		(slots != uint64(len(c.slots)) || ways != uint64(c.cfg.Ways)) {
		d.err = fmt.Errorf("level %s is %d×%d-way in the snapshot, %d×%d-way here",
			c.cfg.Name, slots, ways, len(c.slots), c.cfg.Ways)
	}
	c.clock, c.epoch = int64(d.uvarint()), int64(d.uvarint())
	c.stats.restore(d)
	if d.err != nil {
		return
	}
	if len(d.buf) < len(c.slots) {
		d.err = errors.New("truncated slot bytes")
		return
	}
	ranks := d.buf[:len(c.slots)]
	d.buf = d.buf[len(c.slots):]
	setBits := uint(bits.TrailingZeros64(c.setMask + 1))
	ways := c.cfg.Ways
	for set := 0; set < len(c.slots); set += ways {
		s, r := c.slots[set:set+ways], ranks[set:set+ways]
		idx := uint64(set / ways)
		for i, b := range r {
			if b == 0 {
				s[i] = slot{}
				continue
			}
			tag := d.uvarint()<<setBits | idx
			s[i] = slot{enc: tag<<1 | tagValid, meta: uint64(b)}
		}
	}
}

func (s *LevelStats) fields() []*int64 {
	return []*int64{&s.Accesses, &s.Hits, &s.Misses, &s.Evictions,
		&s.DirtyEvictions, &s.PrefetchFills, &s.PrefetchHits}
}

func (s LevelStats) appendTo(buf []byte) []byte {
	for _, f := range s.fields() {
		buf = binary.AppendUvarint(buf, uint64(*f))
	}
	return buf
}

func (s *LevelStats) restore(d *decoder) {
	for _, f := range s.fields() {
		*f = int64(d.uvarint())
	}
}

// decoder reads uvarints off a snapshot, latching the first error so
// callers check once at the end.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errors.New("truncated or overlong varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}
