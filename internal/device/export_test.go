package device

import (
	"fmt"
	"sort"

	"repro/internal/icv"
)

// Names returns the mapped names, sorted.
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.vals))
	for k := range e.vals {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DeviceICVs returns device id's own ICV set (the live set, not a copy).
func (m *Manager) DeviceICVs(id int) (*icv.Set, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || id >= len(m.entries) {
		return nil, fmt.Errorf("%w: %d (have %d devices)", ErrBadDevice, id, len(m.entries))
	}
	return m.entries[id].icvs, nil
}

// Sync reports the device's sticky failure, if any.
func (s *subprocessDevice) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}
