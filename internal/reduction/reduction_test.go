package reduction

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestIdentityInt(t *testing.T) {
	if Identity[int](Sum) != 0 || Identity[int](Prod) != 1 {
		t.Error("sum/prod identity wrong")
	}
	if Identity[int](BitAnd) != -1 {
		t.Errorf("& identity = %d, want -1", Identity[int](BitAnd))
	}
	if Identity[int](BitOr) != 0 || Identity[int](BitXor) != 0 {
		t.Error("|/^ identity wrong")
	}
	if Identity[int8](Max) != math.MinInt8 || Identity[int8](Min) != math.MaxInt8 {
		t.Errorf("int8 max/min identities = %d/%d", Identity[int8](Max), Identity[int8](Min))
	}
	if Identity[int64](Max) != math.MinInt64 || Identity[int64](Min) != math.MaxInt64 {
		t.Error("int64 extrema wrong")
	}
	if Identity[uint16](Max) != 0 || Identity[uint16](Min) != math.MaxUint16 {
		t.Errorf("uint16 extrema = %d/%d", Identity[uint16](Max), Identity[uint16](Min))
	}
	if Identity[uint64](BitAnd) != math.MaxUint64 {
		t.Error("uint64 & identity wrong")
	}
}

func TestIdentityFloat(t *testing.T) {
	if !math.IsInf(Identity[float64](Max), -1) {
		t.Error("float64 max identity should be -Inf")
	}
	if !math.IsInf(Identity[float64](Min), 1) {
		t.Error("float64 min identity should be +Inf")
	}
	if !math.IsInf(float64(Identity[float32](Max)), -1) {
		t.Error("float32 max identity should be -Inf")
	}
	if Identity[float64](Sum) != 0 || Identity[float64](Prod) != 1 {
		t.Error("float sum/prod identity wrong")
	}
}

func TestIdentityIsNeutralProperty(t *testing.T) {
	// Property: Combine(op, Identity, x) == x for every op and value.
	ops := []Op{Sum, Prod, Max, Min, BitAnd, BitOr, BitXor}
	f := func(x int32) bool {
		for _, op := range ops {
			if Combine(op, Identity[int32](op), x) != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		for _, op := range []Op{Sum, Prod, Max, Min} {
			if Combine(op, Identity[float64](op), x) != x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCombineLogical(t *testing.T) {
	if Combine[int](LogAnd, 3, 5) != 1 || Combine[int](LogAnd, 3, 0) != 0 {
		t.Error("&& truth table broken")
	}
	if Combine[int](LogOr, 0, 0) != 0 || Combine[int](LogOr, 0, 9) != 1 {
		t.Error("|| truth table broken")
	}
}

func TestCombineBitwiseUnsigned(t *testing.T) {
	if got := Combine[uint8](BitAnd, 0xF0, 0xCC); got != 0xC0 {
		t.Errorf("& = %x", got)
	}
	if got := Combine[uint8](BitOr, 0xF0, 0x0C); got != 0xFC {
		t.Errorf("| = %x", got)
	}
	if got := Combine[uint64](BitXor, math.MaxUint64, 1); got != math.MaxUint64-1 {
		t.Errorf("^ = %x", got)
	}
}

func TestAccumulatorSerialEquivalence(t *testing.T) {
	// n threads each fold a strided share; result must equal the serial sum.
	const n, total = 4, 1000
	acc := NewAccumulator[int64](Sum, n)
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := tid; i < total; i += n {
				acc.Update(tid, int64(i))
			}
		}(tid)
	}
	wg.Wait()
	want := int64(total * (total - 1) / 2)
	if got := acc.Reduce(); got != want {
		t.Errorf("Reduce = %d, want %d", got, want)
	}
	if got := acc.ReduceInto(5); got != want+5 {
		t.Errorf("ReduceInto(5) = %d, want %d", got, want+5)
	}
}

func TestAccumulatorMaxAcrossThreads(t *testing.T) {
	const n = 8
	acc := NewAccumulator[float64](Max, n)
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				acc.Update(tid, float64(tid*100+i))
			}
		}(tid)
	}
	wg.Wait()
	if got := acc.Reduce(); got != 799 {
		t.Errorf("max = %g, want 799", got)
	}
}

func TestAccumulatorSetGet(t *testing.T) {
	acc := NewAccumulator[int](Sum, 3)
	acc.Set(1, 42)
	if acc.Get(1) != 42 || acc.Get(0) != 0 {
		t.Error("Set/Get broken")
	}
	if acc.Reduce() != 42 {
		t.Errorf("Reduce = %d", acc.Reduce())
	}
}

func TestAccumulatorProdIdentitySlots(t *testing.T) {
	// Threads that never contribute must not perturb a product reduction.
	acc := NewAccumulator[int64](Prod, 8)
	acc.Update(3, 6)
	acc.Update(5, 7)
	if got := acc.Reduce(); got != 42 {
		t.Errorf("prod = %d, want 42", got)
	}
}

func TestAccumulatorPanicsOnZeroSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewAccumulator[int](Sum, 0)
}

func TestStrategiesAgree(t *testing.T) {
	const n, perThread = 4, 1000
	for _, s := range []Strategy{StrategyPartials, StrategyAtomic, StrategyCritical} {
		sink := NewSharedFloat64(s, Sum, n)
		var wg sync.WaitGroup
		for tid := 0; tid < n; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for i := 0; i < perThread; i++ {
					sink.Contribute(tid, 1.5)
				}
			}(tid)
		}
		wg.Wait()
		if got, want := result(sink), float64(n*perThread)*1.5; got != want {
			t.Errorf("%v: result = %g, want %g", s, got, want)
		}
	}
}

func TestCriticalStrategyMax(t *testing.T) {
	sink := NewSharedFloat64(StrategyCritical, Max, 2)
	sink.Contribute(0, 3)
	sink.Contribute(1, 9)
	sink.Contribute(0, 5)
	if result(sink) != 9 {
		t.Errorf("critical max = %g", result(sink))
	}
}

func TestAtomicStrategyRejectsNonSum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for atomic max")
		}
	}()
	NewSharedFloat64(StrategyAtomic, Max, 2)
}

func TestStrategyString(t *testing.T) {
	if StrategyPartials.String() != "partials" || StrategyAtomic.String() != "atomic" || StrategyCritical.String() != "critical" {
		t.Error("strategy names wrong")
	}
}

// Property: for associative-commutative integer ops, Accumulator over any
// split of the inputs equals the serial left fold.
func TestAccumulatorMatchesSerialFoldProperty(t *testing.T) {
	f := func(xs []int32, nRaw uint8) bool {
		n := int(nRaw)%7 + 1
		for _, op := range []Op{Sum, Max, Min, BitAnd, BitOr, BitXor} {
			acc := NewAccumulator[int64](op, n)
			serial := Identity[int64](op)
			for i, x := range xs {
				acc.Update(i%n, int64(x))
				serial = Combine(op, serial, int64(x))
			}
			if acc.Reduce() != serial {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
