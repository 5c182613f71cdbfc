package gomp

import (
	"repro/internal/core"
	"repro/internal/device"
)

// Device offload — the target construct family. Constructs lower onto a
// registry of devices (internal/device): device 0 is the host backend (a
// dedicated in-process runtime, zero-copy maps); devices 1..n are
// subprocess backends that re-execute this binary as workers and move the
// data environment over pipes as raw memory. The registry is configured from
// OMP_DEFAULT_DEVICE, OMP_TARGET_OFFLOAD and GOMP_SUBPROCESS_DEVICES on
// first use.
//
// Programs that offload to subprocess devices must (a) register their
// kernels by name with RegisterKernel before main runs device code, and
// (b) call WorkerInit first thing in main — the worker child runs the same
// binary and needs both to serve kernels. Closure kernels (TargetRegion
// with an inline func) run in-process only: on an out-of-process device
// they fall back to the host, or fail under OMP_TARGET_OFFLOAD=mandatory.

// Mapping, Launch and TargetEnv alias the device layer's types so kernels
// and map lists are written against this package alone.
type (
	Mapping   = device.Mapping
	Launch    = device.Launch
	TargetEnv = device.Env
)

// DefaultDeviceID selects default-device-var (OMP_DEFAULT_DEVICE) in any
// device-id parameter — what a directive without device(n) passes.
const DefaultDeviceID = device.DefaultDeviceID

// MapTo maps name/data host→device at entry only — map(to: name).
func MapTo(name string, data any) Mapping {
	return Mapping{Kind: device.MapTo, Name: name, Data: data}
}

// MapFrom allocates at entry and copies device→host at exit — map(from: name).
func MapFrom(name string, data any) Mapping {
	return Mapping{Kind: device.MapFrom, Name: name, Data: data}
}

// MapToFrom copies both ways — map(tofrom: name), the default map type.
func MapToFrom(name string, data any) Mapping {
	return Mapping{Kind: device.MapToFrom, Name: name, Data: data}
}

// MapAlloc allocates uninitialised device storage — map(alloc: name).
func MapAlloc(name string, data any) Mapping {
	return Mapping{Kind: device.MapAlloc, Name: name, Data: data}
}

// MapRelease drops one present-table reference without a transfer —
// map(release: name) on target exit data.
func MapRelease(name string, data any) Mapping {
	return Mapping{Kind: device.MapRelease, Name: name, Data: data}
}

// MapDelete forces the entry out of the device data environment without a
// copy-back — map(delete: name) on target exit data.
func MapDelete(name string, data any) Mapping {
	return Mapping{Kind: device.MapDelete, Name: name, Data: data}
}

// RegisterKernel registers an outlined target-region body under a name,
// making it executable on out-of-process devices (the analog of a
// compiler-registered device image). Call it from package init or early in
// main, before WorkerInit, so parent and worker agree on the registry.
func RegisterKernel(name string, k func(rt *Runtime, cfg Launch, env *TargetEnv)) {
	device.RegisterKernel(name, func(rt *core.Runtime, cfg device.Launch, env *device.Env) {
		k(rt, cfg, env)
	})
}

// RegisterMapType registers the element type of v (v itself, or what a
// slice or pointer v holds) so map clauses can carry it to subprocess
// devices: the worker allocates device buffers from the registered name.
// Mapped storage crosses the pipe as raw memory, so the type must be
// pointer-free — bools, integers, floats, complex numbers, and arrays and
// structs of those; RegisterMapType panics otherwise. Builtin numeric and
// bool types are pre-registered. Call it from package init, like
// RegisterKernel, so parent and worker agree. The host device needs none of
// this: it maps any storage zero-copy.
func RegisterMapType(v any) { device.RegisterType(v) }

// WorkerInit turns a process spawned as a device worker into a kernel
// server (it never returns in that case); in a normal process it returns
// immediately. Call it first thing in main — after kernel registrations —
// in any program that offloads to subprocess devices. Tests use it from
// TestMain the same way.
func WorkerInit() { device.WorkerMain() }

// GetNumDevices reports the number of available devices, host included
// (this runtime numbers the host as device 0) — omp_get_num_devices.
func GetNumDevices() int { return device.DefaultManager().NumDevices() }

// SetDefaultDevice sets default-device-var — omp_set_default_device.
func SetDefaultDevice(id int) error { return device.DefaultManager().SetDefaultDevice(id) }

// GetDefaultDevice reads default-device-var — omp_get_default_device.
func GetDefaultDevice() int { return device.DefaultManager().GetDefaultDevice() }

// Target runs the named registered kernel on device dev with the given
// launch configuration and map list — the target construct (with target
// teams clauses folded into cfg). The maps enter the device data
// environment before launch and exit after, with the copy-backs their map
// types imply.
func Target(dev int, name string, cfg Launch, maps ...Mapping) error {
	return device.DefaultManager().Target(dev, name, nil, cfg, maps...)
}

// TargetRegion runs a closure kernel — what the preprocessor lowers a
// target region to. In-process devices run body directly (capturing host
// variables is fine there); out-of-process devices cannot, and the offload
// policy decides between host fallback and failure.
func TargetRegion(dev int, cfg Launch, body func(rt *Runtime, cfg Launch, env *TargetEnv), maps ...Mapping) error {
	return device.DefaultManager().Target(dev, "", func(rt *core.Runtime, cfg device.Launch, env *device.Env) {
		body(rt, cfg, env)
	}, cfg, maps...)
}

// TargetNowait launches Target asynchronously — the nowait clause on
// target. Errors surface at the next TargetSync.
func TargetNowait(dev int, name string, cfg Launch, maps ...Mapping) {
	device.DefaultManager().TargetNowait(dev, name, nil, cfg, maps...)
}

// TargetSync waits for all outstanding TargetNowait launches and returns
// the first error among them.
func TargetSync() error { return device.DefaultManager().TargetSync() }

// TargetData brackets body in a device data environment — the target data
// construct. Nested Target calls on the same device hit the present table
// and reuse the mapped buffers instead of re-transferring.
func TargetData(dev int, body func() error, maps ...Mapping) error {
	return device.DefaultManager().TargetData(dev, body, maps...)
}

// TargetEnterData opens an unstructured device data environment — target
// enter data. Map types are restricted to to/alloc.
func TargetEnterData(dev int, maps ...Mapping) error {
	return device.DefaultManager().TargetEnterData(dev, maps...)
}

// TargetExitData closes it — target exit data. Map types are restricted to
// from/release/delete.
func TargetExitData(dev int, maps ...Mapping) error {
	return device.DefaultManager().TargetExitData(dev, maps...)
}

// TargetUpdate forces data motion for present items — the target update
// construct. Use MapTo mappings for update to(...) and MapFrom for
// update from(...).
func TargetUpdate(dev int, maps ...Mapping) error {
	return device.DefaultManager().TargetUpdate(dev, maps...)
}

// TeamsFor workshares iterations 0..n-1 across a league of cfg.NumTeams
// teams, each forking an inner parallel region — the kernel-side execution
// shape of target teams distribute parallel for. opts accepts the same
// mix of parallel and loop options as Teams/ParallelFor.
func TeamsFor(rt *Runtime, cfg Launch, n int, body func(i int, t *Thread), opts ...any) {
	device.TeamsFor(rt, cfg, n, body, opts...)
}
