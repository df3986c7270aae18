package workload

import (
	"fmt"
	"slices"
	"unsafe"

	"dramstacks/internal/cpu"
)

// FillBatch lifts any pure cpu.Source into the cpu.BatchSource contract
// by looping its Next: buf is filled until it is full or the stream
// ends. The purity requirement — the k-th instruction is a function of
// the consumption count alone — is the source's responsibility; every
// generator in this package satisfies it.
func FillBatch(src cpu.Source, buf []cpu.Instr) int {
	for i := range buf {
		ins, ok := src.Next()
		if !ok {
			return i
		}
		buf[i] = ins
	}
	return len(buf)
}

var (
	_ cpu.BatchSource = (*Synthetic)(nil)
	_ cpu.BatchSource = (*Slice)(nil)
	_ cpu.BatchSource = (*Player)(nil)
	_ cpu.BatchSource = (*Stream)(nil)

	_ cpu.WarmKeyer = (*Synthetic)(nil)
	_ cpu.WarmKeyer = (*Stream)(nil)
)

// WarmKey implements cpu.WarmKeyer: a synthetic stream is a function of
// its (normalized) configuration and consumption count alone. The Go
// syntax representation names the type and prints every field,
// floats included, exactly.
func (s *Synthetic) WarmKey() (string, bool) {
	if s.emitted != 0 || s.sinceBr != 0 {
		return "", false
	}
	return fmt.Sprintf("%#v", s.cfg), true
}

// WarmKey implements cpu.WarmKeyer, like Synthetic's.
func (s *Stream) WarmKey() (string, bool) {
	if s.emitted != 0 || s.phase != 0 {
		return "", false
	}
	return fmt.Sprintf("%#v", s.cfg), true
}

// CloneWarm implements cpu.WarmKeyer: the generator register is a value
// field, so only the per-chain load history needs a deep copy.
func (s *Synthetic) CloneWarm() (cpu.WarmKeyer, int64) {
	c := *s
	c.loadsSince = slices.Clone(s.loadsSince)
	return &c, int64(unsafe.Sizeof(c)) + 8*int64(len(c.loadsSince))
}

// RestoreWarm implements cpu.WarmKeyer.
func (s *Synthetic) RestoreWarm(from cpu.WarmKeyer) {
	f := from.(*Synthetic)
	loads := s.loadsSince
	*s = *f
	s.loadsSince = append(loads[:0], f.loadsSince...)
}

// CloneWarm implements cpu.WarmKeyer; a Stream is plain data.
func (s *Stream) CloneWarm() (cpu.WarmKeyer, int64) {
	c := *s
	return &c, int64(unsafe.Sizeof(c))
}

// RestoreWarm implements cpu.WarmKeyer.
func (s *Stream) RestoreWarm(from cpu.WarmKeyer) { *s = *from.(*Stream) }

// NextBatch implements cpu.BatchSource natively: it produces exactly
// the sequence repeated Next calls would (same RNG draw order, same
// chain bookkeeping), but hoists the hot generator state into locals
// for the duration of the block so the per-instruction cost is a few
// register operations instead of a pointer-chasing method call.
func (s *Synthetic) NextBatch(buf []cpu.Instr) int {
	var (
		cfg       = &s.cfg
		rng       = &s.rng
		sinceBr   = s.sinceBr
		emitted   = s.emitted
		seqOffset = s.seqOffset
	)
	n := 0
	for n < len(buf) {
		// Mirrors Next: a due branch is emitted even when the op budget
		// has just run out.
		if cfg.BranchEvery > 0 && sinceBr >= cfg.BranchEvery {
			sinceBr = 0
			buf[n] = cpu.Instr{
				Kind:       cpu.KindBranch,
				Mispredict: rng.Float64() < cfg.MispredictRate,
			}
			n++
			continue
		}
		if cfg.Ops > 0 && emitted >= cfg.Ops {
			break
		}
		sinceBr++
		emitted++

		var isStore bool
		if s.drawStore {
			isStore = rng.Float64() < cfg.StoreFrac
		}
		ins := cpu.Instr{Work: cfg.WorkPerOp, Kind: cpu.KindLoad}
		if isStore {
			ins.Kind = cpu.KindStore
		}

		switch cfg.Pattern {
		case Sequential, Strided:
			ins.Addr = cfg.BaseAddr + seqOffset
			seqOffset += cfg.StrideBytes
			if seqOffset >= cfg.FootprintBytes {
				seqOffset = 0
			}
		case Random:
			lines := cfg.FootprintBytes / 64
			ins.Addr = cfg.BaseAddr + uint64(rng.Int63n(int64(lines)))*64
			if !isStore {
				chain := s.nextChain
				s.nextChain = (s.nextChain + 1) % cfg.Chains
				if last := s.loadsSince[chain]; last >= 0 {
					if dep := s.loadCount - last; dep >= 1 && dep <= 32 {
						ins.LoadDep = int(dep)
					}
				}
				s.loadCount++
				s.loadsSince[chain] = s.loadCount - 1
			}
		}
		buf[n] = ins
		n++
	}
	s.sinceBr = sinceBr
	s.emitted = emitted
	s.seqOffset = seqOffset
	return n
}

// NextBatch implements cpu.BatchSource with a bulk copy.
func (s *Slice) NextBatch(buf []cpu.Instr) int {
	n := copy(buf, s.Instrs[s.pos:])
	s.pos += n
	return n
}

// NextBatch implements cpu.BatchSource via the generic adapter; the
// player's per-instruction work (looping, op budgets) stays in Next.
func (p *Player) NextBatch(buf []cpu.Instr) int { return FillBatch(p, buf) }

// NextBatch implements cpu.BatchSource via the generic adapter.
func (s *Stream) NextBatch(buf []cpu.Instr) int { return FillBatch(s, buf) }
