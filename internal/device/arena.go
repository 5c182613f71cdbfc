package device

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"sync/atomic"
	"unsafe"
)

// arena is the subprocess device's memory: one object host and worker both
// map shared over a fixed reserved window (sys_unix.go), so addresses stay
// put while it grows by ftruncate; it never shrinks. Device buffers are
// spans of it past the mailbox. The host owns the allocator and copies in
// and out directly; the worker views the spans an Exec names, once checked.
type arena struct {
	f    *os.File
	mem  []byte // the reserved window; only mem[:size] is backed
	size int64  // the object's size as this side last saw it

	// Host side: freed extents, sorted and merged, and the high-water mark
	// past which nothing was ever handed out.
	free []extent
	top  int64
}

type extent struct{ off, n int64 }

const (
	arenaWindow = 1 << (28 + 8*(^uintptr(0)>>63)) // 64 GiB; 256 MiB on 32-bit
	arenaGrain  = 1 << 20                         // the object grows in whole MiB
	spanAlign   = 64                              // spans start on cache lines
	mailboxLen  = arenaGrain                      // the object's head; spans lie past it
)

// mailbox overlays the arena's head: six control words, each on a cache
// line of its own, then the two frame areas. Index 0 of each pair is the
// host's, which posts requests; index 1 the worker's, which posts replies.
type mailbox struct {
	seq, parked, n [2]word // frames posted; parked on its pipe; the last frame's length
	req            [maxRequestLen]byte
	rep            [maxReplyLen]byte
}

type word struct {
	atomic.Uint32
	_ [spanAlign - 4]byte
}

func (a *arena) mailbox() *mailbox { return (*mailbox)(unsafe.Pointer(&a.mem[0])) }

// area is the frame area side posts into.
func (m *mailbox) area(side int) []byte { return [2][]byte{m.req[:], m.rep[:]}[side] }

// spanSize rounds n up to whole spanAlign units, at least one.
func spanSize(n int64) int64 { return max(spanAlign, (n+spanAlign-1)&^(spanAlign-1)) }

// alloc takes a span for n bytes: first fit among freed extents, else past
// the high-water mark. reused reports storage an earlier buffer may have
// written; storage past the mark was never used and reads as zeros.
func (a *arena) alloc(n int64) (off int64, reused bool, err error) {
	n = spanSize(n)
	for i, e := range a.free {
		if e.n >= n {
			a.free[i] = extent{e.off + n, e.n - n}
			if e.n == n {
				a.free = slices.Delete(a.free, i, i+1)
			}
			return e.off, true, nil
		}
	}
	if left := int64(len(a.mem)) - a.top; n > left {
		return 0, false, fmt.Errorf("device memory exhausted: %d bytes wanted, %d of %d left", n, left, len(a.mem))
	}
	if need := a.top + n; need > a.size {
		grown := min(int64(len(a.mem)), (need+arenaGrain-1)&^(arenaGrain-1))
		if err := a.f.Truncate(grown); err != nil {
			return 0, false, fmt.Errorf("device memory: %v", err)
		}
		a.size = grown
	}
	off, a.top = a.top, a.top+n
	return off, false, nil
}

// release returns the span alloc(n) gave at off, merged with its neighbours.
func (a *arena) release(off, n int64) {
	n = spanSize(n)
	i, _ := slices.BinarySearchFunc(a.free, off, func(e extent, off int64) int { return cmp.Compare(e.off, off) })
	a.free = slices.Insert(a.free, i, extent{off, n})
	if i+1 < len(a.free) && off+n == a.free[i+1].off {
		a.free[i].n += a.free[i+1].n
		a.free = slices.Delete(a.free, i+1, i+2)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].n == off {
		a.free[i-1].n += a.free[i].n
		a.free = slices.Delete(a.free, i, i+1)
	}
}

// holds reports whether n bytes at off, and the byte at off, are backed.
func (a *arena) holds(off, n uint64) bool { return off < uint64(a.size) && n <= uint64(a.size)-off }

// view builds an Exec argument's value over the worker's mapping: a slice,
// or a pointer to one boxed value, as the host backend hands out. Element
// types are pointer-free (the mappable-type rule), so any bytes are valid.
// Every wire field is checked first — a registered type, a count ≥ -1 whose
// byte size fits, an aligned span inside the object and past the mailbox,
// whose size is re-read only when a span lies past the size last seen — so
// a bad argument is an error, never a view outside the arena's spans.
func (a *arena) view(w *wireArg) (any, error) {
	t, ok := typesByName.Load(w.typ)
	if !ok {
		return nil, fmt.Errorf("type %q is not registered in the worker", w.typ)
	}
	elem := t.(reflect.Type)
	size := uint64(elem.Size())
	if w.count < -1 || w.count > math.MaxInt || size > 0 && w.count > math.MaxInt64/int64(size) {
		return nil, fmt.Errorf("element count %d of %s out of range", w.count, elem)
	}
	if w.count >= 0 {
		size *= uint64(w.count)
	}
	if !a.holds(w.off, size) {
		if fi, err := a.f.Stat(); err == nil {
			a.size = min(fi.Size(), int64(len(a.mem)))
		}
	}
	if w.off < mailboxLen || !a.holds(w.off, size) || w.off%uint64(elem.Align()) != 0 {
		return nil, fmt.Errorf("%d bytes at offset %d: outside the arena's spans [%d, %d) or misaligned for %s", size, w.off, mailboxLen, a.size, elem)
	}
	p := unsafe.Add(unsafe.Pointer(unsafe.SliceData(a.mem)), w.off)
	if w.count == -1 {
		return reflect.NewAt(elem, p).Interface(), nil
	}
	return reflect.SliceAt(elem, p, int(w.count)).Interface(), nil
}
