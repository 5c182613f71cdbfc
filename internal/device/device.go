// Package device is the offload layer of the runtime — the analog of
// libomptarget, the LLVM/OpenMP plugin host that backs the target construct
// family. The paper's runtime stops at host constructs; this layer is the
// ROADMAP's "many backends, scaled" step: a small Device interface
// (Alloc/MapTo/MapFrom/Exec/Sync) behind a registry of devices, each with
// its own ICV set, plus the reference-counted present table that implements
// the map clause data environment (the tgt_target_data analog).
//
// Two backends ship:
//
//   - host (device 0): runs kernels in-process on a dedicated runtime (its
//     own hot-team pool), with zero-copy maps — the host-fallback device
//     every OpenMP implementation carries.
//   - subprocess: re-executes the current binary as a worker child. The
//     data environment lives in a shared memory arena both processes map
//     (arena.go), so maps are memory copies on the host and only a kernel
//     launch crosses the pipe (frame.go), as in libomptarget's plugins.
//     Kernels are registered by name (RegisterKernel), as a compiler
//     registers device images; the worker resolves the same name because
//     parent and child run the same binary.
//
// Closure kernels (an inline func with no registered name) capture host
// variables directly and therefore execute only on in-process devices; on
// other devices the manager applies the target-offload ICV: fall back to
// the host (default) or fail (mandatory).
package device

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// Ptr is a device-side buffer handle, scoped to the device that issued it.
type Ptr uint64

// MapKind is a map clause's map type, deciding which transfers happen at
// data-environment entry and exit.
type MapKind int

const (
	// MapToFrom copies host→device at entry and device→host at exit.
	MapToFrom MapKind = iota
	// MapTo copies host→device at entry only.
	MapTo
	// MapFrom allocates at entry and copies device→host at exit.
	MapFrom
	// MapAlloc allocates uninitialised device storage; no transfers.
	MapAlloc
	// MapRelease decrements the present-table reference count without a
	// transfer (target exit data).
	MapRelease
	// MapDelete forces the entry out of the present table without a
	// copy-back, regardless of its reference count (target exit data).
	MapDelete
)

// String returns the map-type spelling used in map clauses.
func (k MapKind) String() string {
	switch k {
	case MapTo:
		return "to"
	case MapFrom:
		return "from"
	case MapAlloc:
		return "alloc"
	case MapRelease:
		return "release"
	case MapDelete:
		return "delete"
	default:
		return "tofrom"
	}
}

// hasTo reports whether the kind transfers host→device at entry.
func (k MapKind) hasTo() bool { return k == MapTo || k == MapToFrom }

// hasFrom reports whether the kind transfers device→host at exit.
func (k MapKind) hasFrom() bool { return k == MapFrom || k == MapToFrom }

// Mapping is one map clause item: a named piece of host storage plus the
// transfer direction. Data must be a slice, or a pointer to a scalar,
// struct or slice (pointers are how scalar write-back reaches the caller).
// Out-of-process devices take pointer-free element types only (bools,
// numbers, and arrays and structs of them), and struct and array types
// must be registered with RegisterType; the host device takes anything.
type Mapping struct {
	Kind MapKind
	Name string
	Data any
}

// String renders "kind: name" for diagnostics.
func (m Mapping) String() string { return fmt.Sprintf("map(%s: %s)", m.Kind, m.Name) }

// Launch is a target region's launch configuration — the num_teams and
// thread_limit clauses of target teams.
type Launch struct {
	// NumTeams is the league size; <= 0 selects the device default.
	NumTeams int
	// ThreadLimit caps each team's inner parallel region; <= 0 is default.
	ThreadLimit int
}

// Arg names one device buffer in a kernel's data environment.
type Arg struct {
	Name string
	Ptr  Ptr
}

// Env is the device-side data environment a kernel executes against. On the
// host device the values are the original host objects (zero-copy); on a
// subprocess device they are the worker's own copies. Get returns a slice
// value for slice mappings and a pointer for pointer mappings, so kernel
// code type-asserts the same shapes on every backend.
type Env struct {
	vals map[string]any
}

// NewEnv builds an environment from name→value pairs; exported for
// backends and tests.
func NewEnv(vals map[string]any) *Env { return &Env{vals: vals} }

// Get returns the mapped object by name, or nil when absent.
func (e *Env) Get(name string) any {
	if e == nil {
		return nil
	}
	return e.vals[name]
}

// Has reports whether name is mapped.
func (e *Env) Has(name string) bool { _, ok := e.vals[name]; return ok }

// Names returns the mapped names, sorted.
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.vals))
	for k := range e.vals {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Kernel is device-executable code: the outlined body of a target region.
// It receives the executing device's runtime (for teams/parallel
// constructs), the launch configuration, and the device-side data
// environment. Register named kernels with RegisterKernel to make them
// executable on out-of-process devices.
type Kernel func(rt *core.Runtime, cfg Launch, env *Env)

// Device is one offload target. Alloc/MapTo/MapFrom/Free manage device
// buffers shaped like host objects, Exec launches a kernel over mapped
// buffers, and Sync drains backend-internal asynchrony.
type Device interface {
	// Name identifies the backend ("host", "subprocess", ...).
	Name() string
	// InProcess reports whether kernels run in this address space — true
	// means closure kernels are executable and maps may be zero-copy.
	InProcess() bool
	// Alloc reserves a device buffer shaped like the host object.
	Alloc(obj Object) (Ptr, error)
	// MapTo copies the host object's current contents into the buffer.
	MapTo(p Ptr, obj Object) error
	// MapFrom copies the buffer back into the host object's storage.
	MapFrom(p Ptr, obj Object) error
	// Free releases the buffer.
	Free(p Ptr) error
	// Exec runs the named kernel (or the closure k, in-process only) with
	// the given launch configuration and data environment.
	Exec(name string, k Kernel, cfg Launch, args []Arg) error
	// Sync blocks until the device's outstanding work completes.
	Sync() error
	// Close tears the device down; it is unusable afterwards.
	Close() error
}

// Sentinel errors the manager classifies offload failures with.
var (
	// ErrBadDevice marks a device id outside the registry.
	ErrBadDevice = errors.New("device id out of range")
	// ErrNoKernel marks an Exec of a name no binary-side registration
	// matches.
	ErrNoKernel = errors.New("kernel not registered")
	// ErrNotOffloadable marks a closure kernel reaching an out-of-process
	// device.
	ErrNotOffloadable = errors.New("closure kernels cannot execute out of process; register the kernel by name")
)

// kernelRegistry maps kernel names to implementations, process-wide. The
// subprocess protocol ships names, not code: parent and worker resolve the
// same registry because they run the same binary.
var kernelRegistry sync.Map // string -> Kernel

// RegisterKernel registers k under name. Registration normally happens in
// package init or early in main, before any worker subprocess is spawned,
// so both sides of the pipe agree. Re-registering a name panics.
func RegisterKernel(name string, k Kernel) {
	if name == "" || k == nil {
		panic("device: RegisterKernel needs a non-empty name and a kernel")
	}
	if _, loaded := kernelRegistry.LoadOrStore(name, k); loaded {
		panic(fmt.Sprintf("device: kernel %q registered twice", name))
	}
}

// LookupKernel resolves a registered kernel.
func LookupKernel(name string) (Kernel, bool) {
	v, ok := kernelRegistry.Load(name)
	if !ok {
		return nil, false
	}
	return v.(Kernel), true
}

// TeamsFor workshares iterations 0..n-1 across a league of cfg.NumTeams
// teams, each forking an inner parallel region — the execution shape of
// `target teams distribute parallel for`, for use inside kernels. opts may
// mix parallel options (core.NumThreads) and loop options (core.Schedule).
func TeamsFor(rt *core.Runtime, cfg Launch, n int, body func(i int, t *core.Thread), opts ...any) {
	if cfg.ThreadLimit > 0 {
		opts = append(opts, core.NumThreads(cfg.ThreadLimit))
	}
	rt.Teams(cfg.NumTeams, func(tc *core.TeamsCtx) {
		tc.DistributeParallelFor(n, body, opts...)
	})
}
