package device

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"

	"repro/internal/icv"
	"repro/internal/trace"
)

// DefaultDeviceID selects default-device-var (OMP_DEFAULT_DEVICE) instead
// of a literal device id — the meaning of a target construct with no
// device clause.
const DefaultDeviceID = -1

// entry is one registered device: the backend plus its own ICV set (each
// device has its own copy of the ICVs, per the spec's device-scoped ICV
// table) and its own present table.
type entry struct {
	dev     Device
	icvs    *icv.Set
	present *presentTable
}

// Manager is the device registry and the front door for target constructs:
// it resolves device ids through the offload policy, maintains each
// device's data environment, and launches kernels. Device 0 is always the
// host.
type Manager struct {
	mu      sync.Mutex
	icvs    *icv.Set // controlling set: default-device-var, target-offload-var
	entries []*entry

	async    sync.WaitGroup
	errMu    sync.Mutex
	asyncErr error
}

// NewManager builds a manager whose controlling ICVs come from icvs
// (cloned; nil selects spec defaults) with the host registered as device 0.
func NewManager(icvs *icv.Set) *Manager {
	if icvs == nil {
		icvs = icv.Default()
	}
	m := &Manager{icvs: icvs.Clone()}
	m.Register(NewHost(m.icvs))
	return m
}

// Register adds a device and returns its id. The device gets its own clone
// of the manager's ICV set and a fresh present table.
func (m *Manager) Register(dev Device) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = append(m.entries, &entry{
		dev:     dev,
		icvs:    m.icvs.Clone(),
		present: newPresentTable(),
	})
	return len(m.entries) - 1
}

// NumDevices reports the registered device count (host included, as
// device 0).
func (m *Manager) NumDevices() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// DeviceICVs returns device id's own ICV set (the live set, not a copy —
// callers adjust a device by mutating it before launching work there).
func (m *Manager) DeviceICVs(id int) (*icv.Set, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || id >= len(m.entries) {
		return nil, fmt.Errorf("%w: %d (have %d devices)", ErrBadDevice, id, len(m.entries))
	}
	return m.entries[id].icvs, nil
}

// SetDefaultDevice sets default-device-var — omp_set_default_device.
func (m *Manager) SetDefaultDevice(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || id >= len(m.entries) {
		return fmt.Errorf("%w: %d (have %d devices)", ErrBadDevice, id, len(m.entries))
	}
	m.icvs.DefaultDevice = id
	return nil
}

// GetDefaultDevice reads default-device-var — omp_get_default_device.
func (m *Manager) GetDefaultDevice() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.icvs.DefaultDevice
}

// resolve maps a device clause value to an entry, applying target-offload-
// var: DISABLED pins everything to the host; an out-of-range id is an error
// under MANDATORY and host fallback otherwise.
func (m *Manager) resolve(id int) (*entry, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == DefaultDeviceID {
		id = m.icvs.DefaultDevice
	}
	if m.icvs.TargetOffload == icv.OffloadDisabled {
		id = 0
	}
	if id < 0 || id >= len(m.entries) {
		if m.icvs.TargetOffload == icv.OffloadMandatory {
			return nil, 0, fmt.Errorf("%w: %d (have %d devices, OMP_TARGET_OFFLOAD=mandatory)", ErrBadDevice, id, len(m.entries))
		}
		id = 0 // host fallback
	}
	return m.entries[id], id, nil
}

// startable is the optional probe for devices with lazy external state
// (the subprocess backend); a Start failure triggers offload-policy
// handling before any data is mapped.
type startable interface{ Start() error }

// place resolves devID and applies the offload policy to the entry: a
// closure-only kernel on an out-of-process device, or a device whose
// backend cannot start, falls back to the host (default policy) or errors
// (mandatory). The data constructs pass no kernel.
func (m *Manager) place(devID int, name string, k Kernel) (*entry, int, error) {
	e, id, err := m.resolve(devID)
	if err != nil {
		return nil, 0, err
	}
	fallback := func(reason error) (*entry, int, error) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.icvs.TargetOffload == icv.OffloadMandatory {
			return nil, 0, fmt.Errorf("device %d (%s): offload is mandatory: %w", id, e.dev.Name(), reason)
		}
		return m.entries[0], 0, nil
	}
	if name == "" && k != nil && !e.dev.InProcess() {
		return fallback(ErrNotOffloadable)
	}
	if s, ok := e.dev.(startable); ok {
		if err := s.Start(); err != nil {
			return fallback(err)
		}
	}
	return e, id, nil
}

// Target executes one target region: resolve the device, enter the map
// list into its data environment, launch the kernel, exit the maps in
// reverse order (performing the copy-backs their map types call for). A
// nil k runs the registered kernel called name; a non-empty name with a
// non-nil k prefers the name on out-of-process devices and the closure in
// process.
func (m *Manager) Target(devID int, name string, k Kernel, cfg Launch, maps ...Mapping) error {
	e, id, err := m.place(devID, name, k)
	if err != nil {
		return err
	}
	trace.Emit(trace.EvTargetBegin, 0, int64(id))
	defer trace.Emit(trace.EvTargetEnd, 0, int64(id))

	args, err := e.enterAll(maps, make([]Arg, 0, len(maps)))
	if err != nil {
		return err
	}
	execErr := e.dev.Exec(name, k, cfg, args)
	e.present.deviceLost(execErr)
	// A failed kernel releases the environment but skips copy-backs of
	// possibly half-written buffers.
	exitErr := e.exitAll(maps, execErr != nil)
	if execErr != nil {
		return execErr
	}
	return exitErr
}

// enterAll enters maps in order, appending each one's buffer to args unless
// args is nil; on a failure it unwinds what was mapped, without copy-back.
func (e *entry) enterAll(maps []Mapping, args []Arg) ([]Arg, error) {
	for i, mp := range maps {
		ptr, err := e.present.enter(e.dev, mp)
		if err != nil {
			e.exitAll(maps[:i], true)
			return nil, err
		}
		if args != nil {
			args = append(args, Arg{Name: mp.Name, Ptr: ptr})
		}
	}
	return args, nil
}

// exitAll exits maps in reverse order, all as release if release is set,
// and returns the first error.
func (e *entry) exitAll(maps []Mapping, release bool) (first error) {
	for _, mp := range slices.Backward(maps) {
		if release {
			mp.Kind = MapRelease
		}
		if err := e.present.exit(e.dev, mp); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TargetNowait runs Target asynchronously — the nowait clause. Errors are
// collected and reported by the next TargetSync.
func (m *Manager) TargetNowait(devID int, name string, k Kernel, cfg Launch, maps ...Mapping) {
	m.async.Add(1)
	go func() {
		defer m.async.Done()
		if err := m.Target(devID, name, k, cfg, maps...); err != nil {
			m.errMu.Lock()
			if m.asyncErr == nil {
				m.asyncErr = err
			}
			m.errMu.Unlock()
		}
	}()
}

// TargetSync waits for every TargetNowait launched so far (a taskwait for
// target tasks) and returns the first asynchronous error, clearing it.
func (m *Manager) TargetSync() error {
	m.async.Wait()
	m.errMu.Lock()
	err := m.asyncErr
	m.asyncErr = nil
	m.errMu.Unlock()
	return err
}

// TargetData brackets body in a device data environment: enter the maps,
// run body (whose nested target constructs hit the present table and reuse
// the buffers), exit in reverse order.
func (m *Manager) TargetData(devID int, body func() error, maps ...Mapping) error {
	e, _, err := m.place(devID, "", nil)
	if err == nil {
		_, err = e.enterAll(maps, nil)
	}
	if err != nil {
		return err
	}
	var bodyErr error
	if body != nil {
		bodyErr = body()
	}
	exitErr := e.exitAll(maps, false)
	if bodyErr != nil {
		return bodyErr
	}
	return exitErr
}

// TargetEnterData maps items into a device data environment that stays
// open until a matching TargetExitData — the unstructured half of target
// data.
func (m *Manager) TargetEnterData(devID int, maps ...Mapping) error {
	e, _, err := m.place(devID, "", nil)
	if err != nil {
		return err
	}
	for _, mp := range maps {
		if _, err := e.present.enter(e.dev, mp); err != nil {
			return err
		}
	}
	return nil
}

// TargetExitData unmaps items: refcounts drop, and the exit map types
// (from/release/delete) decide the copy-backs.
func (m *Manager) TargetExitData(devID int, maps ...Mapping) error {
	return m.forEach(devID, maps, (*presentTable).exit)
}

// TargetUpdate forces data motion for present items — the target update
// construct: to-kinds refresh the device copy, from-kinds refresh the host.
func (m *Manager) TargetUpdate(devID int, maps ...Mapping) error {
	return m.forEach(devID, maps, (*presentTable).update)
}

// forEach applies op to every item on the placed device and returns the
// first error.
func (m *Manager) forEach(devID int, maps []Mapping, op func(*presentTable, Device, Mapping) error) error {
	e, _, err := m.place(devID, "", nil)
	if err != nil {
		return err
	}
	var first error
	for _, mp := range maps {
		if err := op(e.present, e.dev, mp); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close syncs and tears down every device (host last). The manager is
// unusable afterwards.
func (m *Manager) Close() error {
	syncErr := m.TargetSync()
	m.mu.Lock()
	entries := m.entries
	m.entries = nil
	m.mu.Unlock()
	var first error
	for i := len(entries) - 1; i >= 0; i-- {
		if err := entries[i].dev.Close(); err != nil && first == nil {
			first = err
		}
	}
	if syncErr != nil {
		return syncErr
	}
	return first
}

// SubprocessDevicesEnv sizes the default manager's subprocess fleet.
const SubprocessDevicesEnv = "GOMP_SUBPROCESS_DEVICES"

var (
	defaultOnce sync.Once
	defaultMgr  *Manager
)

// DefaultManager is the process-wide manager the gomp facade uses: ICVs
// from the environment, the host as device 0, and GOMP_SUBPROCESS_DEVICES
// subprocess devices (default 1) after it. Worker processes register the
// host only — a worker never spawns workers of its own.
func DefaultManager() *Manager {
	defaultOnce.Do(func() {
		icvs, _ := icv.FromEnv(os.LookupEnv)
		defaultMgr = NewManager(icvs)
		if IsWorker() {
			return
		}
		n := 1
		if s := os.Getenv(SubprocessDevicesEnv); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v >= 0 {
				n = v
			}
		}
		for i := 0; i < n; i++ {
			defaultMgr.Register(NewSubprocess(defaultMgr.icvs))
		}
	})
	return defaultMgr
}
