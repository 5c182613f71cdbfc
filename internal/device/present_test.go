package device

import (
	"fmt"
	"testing"
)

// mockDev records every transfer so the present-table tests can assert the
// libomp refcount semantics: transfer on 0→1 (to) and 1→0 (from) only.
type mockDev struct {
	next   Ptr
	allocs int
	tos    []Ptr
	froms  []Ptr
	frees  []Ptr
}

func (m *mockDev) Name() string    { return "mock" }
func (m *mockDev) InProcess() bool { return true }
func (m *mockDev) Alloc(obj Object) (Ptr, error) {
	m.next++
	m.allocs++
	return m.next, nil
}
func (m *mockDev) MapTo(p Ptr, obj Object) error   { m.tos = append(m.tos, p); return nil }
func (m *mockDev) MapFrom(p Ptr, obj Object) error { m.froms = append(m.froms, p); return nil }
func (m *mockDev) Free(p Ptr) error                { m.frees = append(m.frees, p); return nil }
func (m *mockDev) Exec(name string, k Kernel, cfg Launch, args []Arg) error {
	return fmt.Errorf("mock: no exec")
}
func (m *mockDev) Close() error { return nil }

// len reports the live entry count.
func (pt *presentTable) len() int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return len(pt.entries)
}

// refsOf reports the reference count of the entry holding obj, 0 if absent.
func (pt *presentTable) refsOf(obj Object) int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if e := pt.entries[obj.keyOf()]; e != nil {
		return e.refs
	}
	return 0
}

// presentRefs exposes a device's present-table refcount for obj-shaped
// storage.
func (m *Manager) presentRefs(devID int, data any) int {
	e, _, err := m.resolve(devID)
	if err != nil {
		return 0
	}
	obj, err := normalizeObject(Mapping{Data: data})
	if err != nil {
		return 0
	}
	return e.present.refsOf(obj)
}

func TestPresentRefcountTransfers(t *testing.T) {
	t.Parallel()
	dev := &mockDev{}
	pt := newPresentTable()
	a := make([]float64, 8)

	m := Mapping{Kind: MapToFrom, Name: "a", Data: a}
	p1, err := pt.enter(dev, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(dev.tos) != 1 {
		t.Fatalf("first enter should transfer to device once, got %d", len(dev.tos))
	}
	p2, err := pt.enter(dev, m)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("re-enter returned a different buffer: %d vs %d", p1, p2)
	}
	if len(dev.tos) != 1 || dev.allocs != 1 {
		t.Fatalf("re-enter must not re-transfer or re-alloc (tos=%d allocs=%d)", len(dev.tos), dev.allocs)
	}
	if got := pt.refsOf(Object{Data: a}); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}

	// First exit: refcount drops, no copy-back yet.
	if err := pt.exit(dev, m); err != nil {
		t.Fatal(err)
	}
	if len(dev.froms) != 0 || len(dev.frees) != 0 {
		t.Fatalf("exit at refs=2 must not transfer or free (froms=%d frees=%d)", len(dev.froms), len(dev.frees))
	}
	// Final exit: copy-back and free.
	if err := pt.exit(dev, m); err != nil {
		t.Fatal(err)
	}
	if len(dev.froms) != 1 || len(dev.frees) != 1 {
		t.Fatalf("final exit should transfer and free once (froms=%d frees=%d)", len(dev.froms), len(dev.frees))
	}
	if pt.len() != 0 {
		t.Fatalf("table not empty after final exit: %d entries", pt.len())
	}
	// Exiting absent storage is a no-op.
	if err := pt.exit(dev, m); err != nil {
		t.Fatal(err)
	}
}

func TestPresentAliasingSliceHeaders(t *testing.T) {
	t.Parallel()
	dev := &mockDev{}
	pt := newPresentTable()
	a := make([]int, 16)
	b := a[:] // second header over the same backing array

	p1, err := pt.enter(dev, Mapping{Kind: MapTo, Name: "a", Data: a})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pt.enter(dev, Mapping{Kind: MapTo, Name: "b", Data: b})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("aliasing headers got distinct buffers: %d vs %d", p1, p2)
	}
	if pt.len() != 1 {
		t.Fatalf("aliasing headers made %d entries, want 1", pt.len())
	}
	// A subslice with a different length is distinct storage.
	if _, err := pt.enter(dev, Mapping{Kind: MapTo, Name: "c", Data: a[:4]}); err != nil {
		t.Fatal(err)
	}
	if pt.len() != 2 {
		t.Fatalf("subslice should be its own entry, table has %d", pt.len())
	}
}

func TestPresentDeleteForcesRemoval(t *testing.T) {
	t.Parallel()
	dev := &mockDev{}
	pt := newPresentTable()
	a := make([]byte, 4)
	m := Mapping{Kind: MapToFrom, Name: "a", Data: a}
	pt.enter(dev, m)
	pt.enter(dev, m) // refs = 2
	if err := pt.exit(dev, Mapping{Kind: MapDelete, Name: "a", Data: a}); err != nil {
		t.Fatal(err)
	}
	if pt.len() != 0 {
		t.Fatal("map(delete:) must remove the entry regardless of refcount")
	}
	if len(dev.froms) != 0 {
		t.Fatal("map(delete:) must not copy back")
	}
	if len(dev.frees) != 1 {
		t.Fatalf("map(delete:) should free once, got %d", len(dev.frees))
	}
}

func TestPresentUpdateMotion(t *testing.T) {
	t.Parallel()
	dev := &mockDev{}
	pt := newPresentTable()
	a := make([]float64, 4)
	pt.enter(dev, Mapping{Kind: MapAlloc, Name: "a", Data: a})
	if len(dev.tos) != 0 {
		t.Fatal("map(alloc:) must not transfer")
	}
	if err := pt.update(dev, Mapping{Kind: MapTo, Name: "a", Data: a}); err != nil {
		t.Fatal(err)
	}
	if len(dev.tos) != 1 {
		t.Fatal("target update to(...) must force a host→device transfer")
	}
	if err := pt.update(dev, Mapping{Kind: MapFrom, Name: "a", Data: a}); err != nil {
		t.Fatal(err)
	}
	if len(dev.froms) != 1 {
		t.Fatal("target update from(...) must force a device→host transfer")
	}
	// Update of absent storage is a no-op.
	other := make([]float64, 2)
	if err := pt.update(dev, Mapping{Kind: MapTo, Name: "x", Data: other}); err != nil {
		t.Fatal(err)
	}
	if len(dev.tos) != 1 {
		t.Fatal("update of absent storage must not transfer")
	}
}

func TestNormalizeRejectsByValueStorage(t *testing.T) {
	t.Parallel()
	if _, err := normalizeObject(Mapping{Kind: MapTo, Name: "x", Data: 3.14}); err == nil {
		t.Fatal("by-value scalar must be rejected (no stable identity for the present table)")
	}
	var p *int
	if _, err := normalizeObject(Mapping{Kind: MapTo, Name: "p", Data: p}); err == nil {
		t.Fatal("nil pointer must be rejected")
	}
	if _, err := normalizeObject(Mapping{Kind: MapTo, Name: "n", Data: nil}); err == nil {
		t.Fatal("nil data must be rejected")
	}
	// Pointer-to-slice dereferences to the slice so keying lands on the
	// backing array.
	s := make([]int, 3)
	obj, err := normalizeObject(Mapping{Kind: MapTo, Name: "s", Data: &s})
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := normalizeObject(Mapping{Kind: MapTo, Name: "s", Data: s})
	if obj.keyOf() != direct.keyOf() {
		t.Fatal("&slice and slice must share a present-table key")
	}
}
