package device

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/trace"
)

// presentTable is the per-device reference-counted map of host storage to
// device buffers — the analog of libomp's present table that tgt_target_data
// consults. The first mapping of a piece of storage allocates (and, for
// to/tofrom, transfers); further mappings only bump the count; the drop to
// zero transfers back (from/tofrom) and frees.
type presentTable struct {
	mu      sync.Mutex
	entries map[hostKey]*presentEntry
}

type presentEntry struct {
	ptr  Ptr
	refs int
	obj  Object // the host storage registered first; exit copies land here
}

func newPresentTable() *presentTable {
	return &presentTable{entries: map[hostKey]*presentEntry{}}
}

// dropIfLost empties the table when *err says the device is gone: its
// buffers went with it, so there is nothing left to copy back or free.
// enter, exit and update defer it under pt.mu.
func (pt *presentTable) dropIfLost(err *error) {
	if errors.Is(*err, errDeviceLost) {
		clear(pt.entries)
	}
}

// deviceLost is dropIfLost for a failure seen outside the table (Exec).
func (pt *presentTable) deviceLost(err error) {
	if err != nil {
		pt.mu.Lock()
		pt.dropIfLost(&err)
		pt.mu.Unlock()
	}
}

// enter maps one item into the device data environment: present-table
// lookup, then Alloc (+MapTo for to/tofrom) on a miss, or a refcount bump
// on a hit. It returns the device buffer naming the item in kernel args.
func (pt *presentTable) enter(dev Device, m Mapping) (_ Ptr, err error) {
	obj, err := normalizeObject(m)
	if err != nil {
		return 0, err
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	defer pt.dropIfLost(&err)
	key := obj.keyOf()
	if e := pt.entries[key]; e != nil {
		e.refs++
		return e.ptr, nil
	}
	ptr, err := dev.Alloc(obj)
	if err != nil {
		return 0, fmt.Errorf("device: %s: %w", m, err)
	}
	if m.Kind.hasTo() {
		if err := dev.MapTo(ptr, obj); err != nil {
			dev.Free(ptr)
			return 0, fmt.Errorf("device: %s: %w", m, err)
		}
		trace.Emit(trace.EvMapTo, 0, obj.byteSize())
	}
	pt.entries[key] = &presentEntry{ptr: ptr, refs: 1, obj: obj}
	return ptr, nil
}

// exit unmaps one item: the refcount drops, and on reaching zero the map
// type of this exit decides the copy-back (from/tofrom transfer, everything
// else just frees). MapDelete forces removal without a transfer regardless
// of the count.
func (pt *presentTable) exit(dev Device, m Mapping) (err error) {
	obj, err := normalizeObject(m)
	if err != nil {
		return err
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	defer pt.dropIfLost(&err)
	key := obj.keyOf()
	e := pt.entries[key]
	if e == nil {
		// Exiting storage that is not present is a no-op, matching the
		// spec's treatment of absent list items on exit.
		return nil
	}
	if m.Kind == MapDelete {
		delete(pt.entries, key)
		return dev.Free(e.ptr)
	}
	e.refs--
	if e.refs > 0 {
		return nil
	}
	delete(pt.entries, key)
	if m.Kind.hasFrom() {
		if err := dev.MapFrom(e.ptr, obj); err != nil {
			dev.Free(e.ptr)
			return fmt.Errorf("device: %s: %w", m, err)
		}
		trace.Emit(trace.EvMapFrom, 0, obj.byteSize())
	}
	return dev.Free(e.ptr)
}

// update forces a motion for a present item: MapTo for to-kinds, MapFrom
// for from-kinds — the target update construct. Absent items are a no-op.
func (pt *presentTable) update(dev Device, m Mapping) (err error) {
	obj, err := normalizeObject(m)
	if err != nil {
		return err
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	defer pt.dropIfLost(&err)
	e := pt.entries[obj.keyOf()]
	if e == nil {
		return nil
	}
	switch {
	case m.Kind.hasTo():
		if err := dev.MapTo(e.ptr, obj); err != nil {
			return fmt.Errorf("device: %s: %w", m, err)
		}
		trace.Emit(trace.EvMapTo, 0, obj.byteSize())
	case m.Kind.hasFrom():
		if err := dev.MapFrom(e.ptr, obj); err != nil {
			return fmt.Errorf("device: %s: %w", m, err)
		}
		trace.Emit(trace.EvMapFrom, 0, obj.byteSize())
	}
	return nil
}
