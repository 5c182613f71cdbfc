// Package reduction implements the reduction clause: thread-safe combining
// of per-iteration values across a team (paper §2: "the reduction clause
// which reduces values across loop iterations in a thread safe manner").
//
// The primary mechanism mirrors libomp: each thread accumulates into a
// private partial (initialised to the operator's identity), and partials are
// combined at the end of the worksharing construct. The runtime keeps those
// partials in padded per-member slots of its team (internal/core's Reduce)
// and folds them with Combine in member order, as Accumulator.Reduce does.
// Accumulator is the same scheme as a standalone value, for the A3 ablation
// strategies and the benchmark's probes; the two alternative strategies —
// atomic updates and a critical section — produce identical results but
// very different scalability.
package reduction

import (
	"fmt"
	"math"
	"unsafe"
)

// Op enumerates the OpenMP reduction-identifier operators (5.2 §5.5.5).
type Op int

const (
	// Sum is the "+" reduction.
	Sum Op = iota
	// Prod is the "*" reduction.
	Prod
	// Max keeps the maximum value.
	Max
	// Min keeps the minimum value.
	Min
	// BitAnd is "&" (integers only).
	BitAnd
	// BitOr is "|" (integers only).
	BitOr
	// BitXor is "^" (integers only).
	BitXor
	// LogAnd is "&&" on zero/non-zero truth values.
	LogAnd
	// LogOr is "||" on zero/non-zero truth values.
	LogOr
)

// String returns the clause spelling of the operator.
func (o Op) String() string {
	switch o {
	case Sum:
		return "+"
	case Prod:
		return "*"
	case Max:
		return "max"
	case Min:
		return "min"
	case BitAnd:
		return "&"
	case BitOr:
		return "|"
	case BitXor:
		return "^"
	case LogAnd:
		return "&&"
	case LogOr:
		return "||"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ParseOp parses a reduction-identifier as written in a reduction clause.
func ParseOp(s string) (Op, error) {
	switch s {
	case "+":
		return Sum, nil
	case "*":
		return Prod, nil
	case "max":
		return Max, nil
	case "min":
		return Min, nil
	case "&":
		return BitAnd, nil
	case "|":
		return BitOr, nil
	case "^":
		return BitXor, nil
	case "&&":
		return LogAnd, nil
	case "||":
		return LogOr, nil
	case "-":
		// OpenMP defines "-" reductions to combine with +, a notorious
		// spec quirk we preserve.
		return Sum, nil
	default:
		return 0, fmt.Errorf("reduction: unknown operator %q", s)
	}
}

// Number constrains the numeric types reductions operate over.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Identity returns the initializer value the spec mandates for op: 0 for +,
// 1 for *, the type's extrema for min/max, all-ones for &, etc.
func Identity[T Number](op Op) T {
	var zero T
	switch op {
	case Sum, BitOr, BitXor, LogOr:
		return zero
	case Prod, LogAnd:
		return zero + 1
	case BitAnd:
		// All-ones: 0-1 wraps to the max for unsigned and is -1 (all
		// bits set) for signed integers. Bitwise reductions on floats
		// are rejected by the directive validator.
		return zero - 1
	case Max:
		return minValue[T]()
	case Min:
		return maxValue[T]()
	default:
		panic(fmt.Sprintf("reduction: no identity for %v", op))
	}
}

// Combine applies op to two values.
func Combine[T Number](op Op, a, b T) T {
	switch op {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Max:
		if b > a {
			return b
		}
		return a
	case Min:
		if b < a {
			return b
		}
		return a
	case BitAnd:
		return fromBits[T](toBits(a) & toBits(b))
	case BitOr:
		return fromBits[T](toBits(a) | toBits(b))
	case BitXor:
		return fromBits[T](toBits(a) ^ toBits(b))
	case LogAnd:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case LogOr:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("reduction: unknown op %v", op))
	}
}

// toBits converts an integral T to uint64 for the bitwise operators. Bitwise
// reductions on floating types are rejected by the directive validator; here
// we truncate, which only the validator-bypassing API user can observe.
func toBits[T Number](v T) uint64 { return uint64(int64(v)) }

func fromBits[T Number](b uint64) T { return T(int64(b)) }

// minValue returns the smallest representable T (or -Inf for floats).
// Only arithmetic defined for every type in the Number set is used, so this
// compiles for mixed integer/float type sets and works for named types.
func minValue[T Number]() T {
	if isFloat[T]() {
		return T(math.Inf(-1))
	}
	var zero T
	if isUnsigned[T]() {
		return zero
	}
	bits := 8 * unsafe.Sizeof(zero)
	return T(int64(-1) << (bits - 1))
}

// maxValue returns the largest representable T (or +Inf for floats).
func maxValue[T Number]() T {
	if isFloat[T]() {
		return T(math.Inf(1))
	}
	var zero T
	if isUnsigned[T]() {
		return zero - 1 // wraps to all-ones
	}
	bits := 8 * unsafe.Sizeof(zero)
	var v int64
	if bits >= 64 {
		v = math.MaxInt64
	} else {
		v = int64(1)<<(bits-1) - 1
	}
	return T(v)
}

// isUnsigned detects unsigned types by wraparound: 0-1 > 0 only for them.
func isUnsigned[T Number]() bool {
	var zero T
	return zero-1 > zero
}

// isFloat detects floating types by non-truncating division: 5/2 keeps a
// fractional part only for them.
func isFloat[T Number]() bool {
	return T(5)/T(2) != T(2)
}

// slotPad spaces Accumulator slots at least a cache line apart.
const slotStride = 8 // 8 * 8 bytes = 64-byte stride for 8-byte T

// Accumulator holds per-thread partials for a reduction, padded against
// false sharing. It is the partials strategy of the A3 ablation.
type Accumulator[T Number] struct {
	op    Op
	slots []T // slot i lives at index i*slotStride
	n     int
}

// NewAccumulator creates an accumulator for n threads, every partial
// initialised to the operator identity.
func NewAccumulator[T Number](op Op, n int) *Accumulator[T] {
	if n < 1 {
		panic("reduction: need at least one slot")
	}
	a := &Accumulator[T]{op: op, slots: make([]T, n*slotStride), n: n}
	id := Identity[T](op)
	for i := 0; i < n; i++ {
		a.slots[i*slotStride] = id
	}
	return a
}

// Update folds v into thread tid's private partial. Only tid may call this
// concurrently for its own slot (the worksharing contract).
func (a *Accumulator[T]) Update(tid int, v T) {
	a.slots[tid*slotStride] = Combine(a.op, a.slots[tid*slotStride], v)
}

// Set overwrites tid's partial (used when a body computes the whole chunk
// partial itself and hands it over once).
func (a *Accumulator[T]) Set(tid int, v T) { a.slots[tid*slotStride] = v }

// Get returns tid's current partial.
func (a *Accumulator[T]) Get(tid int) T { return a.slots[tid*slotStride] }

// Reduce combines all partials pairwise in a fixed left-to-right order —
// deterministic for a given team size, which the tests rely on — and returns
// the result. Call only after all updates have completed (post-barrier).
func (a *Accumulator[T]) Reduce() T {
	acc := a.slots[0]
	for i := 1; i < a.n; i++ {
		acc = Combine(a.op, acc, a.slots[i*slotStride])
	}
	return acc
}

// ReduceInto combines the reduction result with the original variable value,
// implementing the spec rule that the reduction result is combined with the
// pre-construct value of the list item.
func (a *Accumulator[T]) ReduceInto(orig T) T { return Combine(a.op, orig, a.Reduce()) }
