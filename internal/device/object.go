package device

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// Object is a normalized piece of host storage participating in the data
// environment: a slice value (keyed by its backing array, so two slice
// headers over the same data share one present-table entry) or a pointer
// to a scalar/struct (keyed by address, so write-back reaches the caller).
type Object struct {
	Name string
	Data any
}

// normalizeObject validates and canonicalises a mapping's host storage.
// Pointers to slices dereference to the slice value — the slice header is
// copied but the backing array is shared, which keeps present-table keying
// on the data pointer. writable reports whether exit transfers can reach
// the caller's storage.
func normalizeObject(m Mapping) (Object, error) {
	rv := reflect.ValueOf(m.Data)
	if !rv.IsValid() {
		return Object{}, fmt.Errorf("device: %s: nil data", m)
	}
	switch rv.Kind() {
	case reflect.Slice:
		return Object{Name: m.Name, Data: m.Data}, nil
	case reflect.Pointer:
		if rv.IsNil() {
			return Object{}, fmt.Errorf("device: %s: nil pointer", m)
		}
		if rv.Elem().Kind() == reflect.Slice {
			return Object{Name: m.Name, Data: rv.Elem().Interface()}, nil
		}
		return Object{Name: m.Name, Data: m.Data}, nil
	default:
		return Object{}, fmt.Errorf("device: %s: host storage must be a slice or a pointer so the present table can identify it; map a scalar as &%s, not a %s value",
			m, m.Name, rv.Kind())
	}
}

// hostKey identifies host storage in the present table, the analog of
// libomp's base-address keying: slices key on (data pointer, len), so two
// slice headers over the same backing array alias one entry; pointers key
// on address.
type hostKey struct {
	addr uintptr
	len  int
}

// keyOf computes the present-table key.
func (o Object) keyOf() hostKey {
	rv := reflect.ValueOf(o.Data)
	if rv.Kind() == reflect.Slice {
		return hostKey{addr: rv.Pointer(), len: rv.Len()}
	}
	return hostKey{addr: rv.Pointer(), len: -1}
}

// byteSize is the size of the object's storage: the transfer size trace
// events report and the length of its raw form.
func (o Object) byteSize() int64 {
	rv := reflect.ValueOf(o.Data)
	switch rv.Kind() {
	case reflect.Slice:
		return int64(rv.Len()) * int64(rv.Type().Elem().Size())
	case reflect.Pointer:
		return int64(rv.Elem().Type().Size())
	default:
		return int64(rv.Type().Size())
	}
}

// raw is the object's storage viewed as bytes — what a map copies to and
// from an out-of-process device. Parent and worker are one binary, so the
// layout is the same on both ends.
func (o Object) raw() []byte {
	rv := reflect.ValueOf(o.Data)
	return unsafe.Slice((*byte)(rv.UnsafePointer()), o.byteSize())
}

// wireShape is what an Exec tells the worker a buffer holds: the element
// type's registered name and the count, -1 for one boxed value. It
// enforces the mappable-type rule at Alloc: the element type must have a
// raw layout and be registered, and the storage must be a plain []T or *T,
// because that is what the worker views and kernels type-assert.
func (o Object) wireShape() (name string, count int64, err error) {
	rv := reflect.ValueOf(o.Data)
	elem := rv.Type().Elem()
	count = -1
	if rv.Kind() == reflect.Slice {
		count = int64(rv.Len())
	}
	if n, ok := typeNames.Load(elem); ok {
		name = n.(string)
	} else if why := notRaw(elem); why != "" {
		return "", 0, fmt.Errorf("type %s cannot cross a device pipe: %s", rv.Type(), why)
	} else {
		return "", 0, fmt.Errorf("type %s is not registered: call RegisterMapType(%s{}) on both sides of the pipe (package init)", elem, elem)
	}
	if rv.Type().Name() != "" {
		plain := reflect.PointerTo(elem)
		if count >= 0 {
			plain = reflect.SliceOf(elem)
		}
		return "", 0, fmt.Errorf("named type %s cannot cross a device pipe: map it as %s", rv.Type(), plain)
	}
	return name, count, nil
}

// notRaw reports why values of t have no raw wire layout, "" when they do.
// Raw layout is defined for pointer-free types: bools, integers, floats,
// complex numbers, and arrays and structs of those. The reason names the
// path to the offending field.
func notRaw(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if why := notRaw(t.Elem()); why != "" {
			return "element " + why
		}
		return ""
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if why := notRaw(t.Field(i).Type); why != "" {
				return "field " + t.Field(i).Name + ": " + why
			}
		}
		return ""
	default:
		return fmt.Sprintf("%s is a %s, which holds a pointer", t, t.Kind())
	}
}

// The map-type registry: element type <-> wire name. The host names the
// type in Alloc; the worker, the same binary with the same registrations,
// allocates from the name. Only types with a raw layout get in, so the
// worker never overlays wire bytes on memory that holds pointers.
var (
	typeNames   sync.Map // reflect.Type -> string
	typesByName sync.Map // string -> reflect.Type
)

// RegisterType registers the element type of v (v itself, or what a slice
// or pointer v holds) so values of it can be mapped onto out-of-process
// devices. Builtin numeric and bool types are pre-registered. It panics
// for a type with no raw layout: registration has no other purpose, and a
// program that needs such a type on a device has to flatten it first.
func RegisterType(v any) {
	t := reflect.TypeOf(v)
	if t != nil && (t.Kind() == reflect.Slice || t.Kind() == reflect.Pointer) {
		t = t.Elem()
	}
	if t == nil {
		panic("device: RegisterType(nil)")
	}
	if why := notRaw(t); why != "" {
		panic(fmt.Sprintf("device: RegisterType(%s): cannot cross a device pipe: %s", t, why))
	}
	name := t.String()
	if t.PkgPath() != "" {
		name = t.PkgPath() + "." + t.Name()
	}
	if prev, loaded := typesByName.LoadOrStore(name, t); loaded && prev != t {
		panic(fmt.Sprintf("device: RegisterType(%s): wire name %q already names %s", t, name, prev))
	}
	typeNames.Store(t, name)
}

func init() {
	for _, v := range []any{
		false, int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0), uintptr(0),
		float32(0), float64(0), complex64(0), complex128(0),
	} {
		RegisterType(v)
	}
}
