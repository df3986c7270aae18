package cyclestack

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddCycleAndSum(t *testing.T) {
	a := NewAccountant()
	a.AddCycle(Base)
	a.AddCycle(Base)
	a.AddCycle(Dcache)
	a.AddCycle(Idle)
	s := a.Stack()
	if s.Total != 4 {
		t.Fatalf("total = %d", s.Total)
	}
	if s.Cycles[Base] != 2 || s.Cycles[Dcache] != 1 || s.Cycles[Idle] != 1 {
		t.Errorf("cycles = %+v", s.Cycles)
	}
	if err := s.CheckSum(); err != nil {
		t.Error(err)
	}
}

func TestDeferredDramSplit(t *testing.T) {
	a := NewAccountant()
	// 10 stall cycles attributed later with a 30% queue fraction.
	for i := 0; i < 10; i++ {
		a.AddTotal(1)
	}
	a.Add(DramQueue, 3)
	a.Add(DramLatency, 7)
	s := a.Stack()
	if err := s.CheckSum(); err != nil {
		t.Fatal(err)
	}
	if s.Cycles[DramQueue] != 3 || s.Cycles[DramLatency] != 7 {
		t.Errorf("split = %v/%v", s.Cycles[DramQueue], s.Cycles[DramLatency])
	}
}

// TestDeferredCountsTowardSum: cycles counted in the total but not yet
// split (Deferred) close the sum, also across Sub and Add.
func TestDeferredCountsTowardSum(t *testing.T) {
	a := NewAccountant()
	a.AddCycle(Base)
	a.AddTotal(4)
	s := a.Stack()
	if err := s.CheckSum(); err == nil {
		t.Error("stack with 4 unsplit cycles accepted without Deferred")
	}
	s.Deferred = 4
	if err := s.CheckSum(); err != nil {
		t.Fatal(err)
	}
	a.Add(DramLatency, 4)
	a.AddCycle(Idle)
	later := a.Stack()
	// The split lands in the interval: its components hold 5 cycles for
	// a total of 1, and the deferred delta of -4 closes the sum.
	d := later.Sub(s)
	if d.Deferred != -4 {
		t.Errorf("interval deferred = %d, want -4", d.Deferred)
	}
	if err := d.CheckSum(); err != nil {
		t.Error(err)
	}
	s.Add(d)
	if s != later {
		t.Errorf("s + (later - s) = %+v, want %+v", s, later)
	}
}

func TestFractions(t *testing.T) {
	a := NewAccountant()
	for i := 0; i < 3; i++ {
		a.AddCycle(Base)
	}
	a.AddCycle(Branch)
	f := a.Stack().Fractions()
	if math.Abs(f[Base]-0.75) > 1e-12 || math.Abs(f[Branch]-0.25) > 1e-12 {
		t.Errorf("fractions = %+v", f)
	}
	var empty Stack
	if f := empty.Fractions(); f[Base] != 0 {
		t.Error("empty stack fractions not zero")
	}
}

func TestSubAndAdd(t *testing.T) {
	a := NewAccountant()
	a.AddCycle(Base)
	snap := a.Stack()
	a.AddCycle(Idle)
	a.AddCycle(Idle)
	d := a.Stack().Sub(snap)
	if d.Total != 2 || d.Cycles[Idle] != 2 || d.Cycles[Base] != 0 {
		t.Errorf("delta = %+v", d)
	}
	agg := snap
	agg.Add(d)
	if agg.Total != 3 || agg.Cycles[Base] != 1 {
		t.Errorf("aggregate = %+v", agg)
	}
}

func TestCheckSumRejectsBad(t *testing.T) {
	s := Stack{Total: 5}
	s.Cycles[Base] = 4
	if err := s.CheckSum(); err == nil {
		t.Error("undercounted stack accepted")
	}
	s.Cycles[Base] = 6
	if err := s.CheckSum(); err == nil {
		t.Error("overcounted stack accepted")
	}
	s.Cycles[Base] = 6
	s.Cycles[Idle] = -1
	if err := s.CheckSum(); err == nil {
		t.Error("negative component accepted")
	}
}

func TestSumPropertyUnderRandomSplits(t *testing.T) {
	f := func(parts []uint8, frac float64) bool {
		if frac < 0 || frac > 1 || math.IsNaN(frac) {
			frac = 0.5
		}
		a := NewAccountant()
		for _, p := range parts {
			c := Component(p) % NumComponents
			if c == DramQueue || c == DramLatency {
				// Deferred split path.
				a.AddTotal(1)
				a.Add(DramQueue, frac)
				a.Add(DramLatency, 1-frac)
				continue
			}
			a.AddCycle(c)
		}
		return a.Stack().CheckSum() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestComponentStrings(t *testing.T) {
	want := []string{"base", "branch", "dcache", "dram-latency", "dram-queue", "idle", "dram-regulated"}
	for c := Component(0); c < NumComponents; c++ {
		if got := c.String(); got != want[c] {
			t.Errorf("component %d = %q, want %q", c, got, want[c])
		}
	}
}
