package device

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/icv"
)

// hostDevice is device 0: kernels run in this process on a dedicated
// runtime (its own hot-team pool, built from the device's ICV set), and
// maps are zero-copy — a device buffer is the host object itself, so MapTo
// and MapFrom only validate the handle. This is the host-fallback device
// every target region can land on.
type hostDevice struct {
	rt *core.Runtime

	mu   sync.Mutex
	next Ptr
	bufs map[Ptr]Object
}

// NewHost builds the in-process backend on a dedicated runtime configured
// by icvs (cloned; nil selects the spec defaults).
func NewHost(icvs *icv.Set) Device {
	if icvs == nil {
		icvs = icv.Default()
	}
	return &hostDevice{
		rt:   core.NewRuntime(icvs.Clone()),
		bufs: map[Ptr]Object{},
	}
}

func (h *hostDevice) Name() string    { return "host" }
func (h *hostDevice) InProcess() bool { return true }

func (h *hostDevice) Alloc(obj Object) (Ptr, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.next++
	h.bufs[h.next] = obj
	return h.next, nil
}

func (h *hostDevice) lookup(p Ptr) (Object, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	obj, ok := h.bufs[p]
	if !ok {
		return Object{}, fmt.Errorf("host device: unknown buffer %d", p)
	}
	return obj, nil
}

// MapTo is zero-copy: the buffer already is the host storage.
func (h *hostDevice) MapTo(p Ptr, obj Object) error {
	_, err := h.lookup(p)
	return err
}

// MapFrom is zero-copy for the same reason.
func (h *hostDevice) MapFrom(p Ptr, obj Object) error {
	_, err := h.lookup(p)
	return err
}

func (h *hostDevice) Free(p Ptr) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.bufs[p]; !ok {
		return fmt.Errorf("host device: unknown buffer %d", p)
	}
	delete(h.bufs, p)
	return nil
}

// Exec runs the kernel on the device's dedicated runtime. A nil k resolves
// name in the kernel registry. Kernel panics surface as errors so the
// manager's offload-policy handling sees them uniformly across backends.
func (h *hostDevice) Exec(name string, k Kernel, cfg Launch, args []Arg) (err error) {
	if k == nil {
		var ok bool
		if k, ok = LookupKernel(name); !ok {
			return fmt.Errorf("host device: %w: %q", ErrNoKernel, name)
		}
	}
	vals := make(map[string]any, len(args))
	for _, a := range args {
		obj, lerr := h.lookup(a.Ptr)
		if lerr != nil {
			return lerr
		}
		vals[a.Name] = obj.Data
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("host device: kernel %q panicked: %v", name, r)
		}
	}()
	k(h.rt, cfg, NewEnv(vals))
	return nil
}

// Close shuts the dedicated pool down.
func (h *hostDevice) Close() error {
	h.rt.Pool().Shutdown()
	return nil
}
