// Package interop simulates the Zig↔Fortran interoperability layer of the
// paper (§3.1): "invoking Fortran procedures from Zig was possible by
// declaring these as C linkage functions using pointer arguments, and
// appending underscores to function names to comply with the Fortran
// compiler's name mangling scheme."
//
// This environment has no Fortran compiler, so the layer is exercised
// against a registry of "compiled Fortran objects": Go functions registered
// under Fortran-mangled symbol names whose signatures are checked for the
// Fortran calling convention (every argument passed by reference). The NPB
// CG reference path calls its kernels through this registry, so the exact
// code path the paper describes — resolve `conj_grad_`, call with pointer
// arguments — runs in every Table 1 measurement. DESIGN.md records this
// substitution.
package interop

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Mangle converts a Fortran procedure name to its linker symbol under the
// classic gfortran scheme: lowercase plus a trailing underscore.
func Mangle(name string) string {
	return strings.ToLower(name) + "_"
}

// Registry is a table of Fortran-convention procedures, keyed by mangled
// symbol — the stand-in for the symbol table of a linked Fortran object.
type Registry struct {
	mu    sync.RWMutex
	procs map[string]*Proc
}

// Proc is one registered Fortran-convention procedure.
type Proc struct {
	// Name is the source-level Fortran name.
	Name string
	// Symbol is the mangled linker name.
	Symbol string
	fn     reflect.Value
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{procs: make(map[string]*Proc)}
}

// Register adds a procedure under its Fortran name. fn must be a func whose
// every parameter is a pointer or slice (Fortran passes everything by
// reference; slices model assumed-size arrays, which are address+extent) and
// which returns nothing (Fortran subroutines) — the same constraints the
// paper's C-linkage declarations impose on the Zig side.
func (r *Registry) Register(name string, fn any) error {
	v := reflect.ValueOf(fn)
	t := v.Type()
	if t.Kind() != reflect.Func {
		return fmt.Errorf("interop: %s: not a function", name)
	}
	if t.NumOut() != 0 {
		return fmt.Errorf("interop: %s: Fortran subroutines return nothing; use an output pointer argument", name)
	}
	for i := 0; i < t.NumIn(); i++ {
		switch t.In(i).Kind() {
		case reflect.Ptr, reflect.Slice:
		default:
			return fmt.Errorf("interop: %s: argument %d is %s; Fortran passes by reference (pointer or slice)",
				name, i, t.In(i))
		}
	}
	sym := Mangle(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.procs[sym]; dup {
		return fmt.Errorf("interop: duplicate symbol %s", sym)
	}
	r.procs[sym] = &Proc{Name: name, Symbol: sym, fn: v}
	return nil
}

// MustRegister is Register that panics on error (init-time tables).
func (r *Registry) MustRegister(name string, fn any) {
	if err := r.Register(name, fn); err != nil {
		panic(err)
	}
}

// Resolve looks up a mangled symbol, as the linker would.
func (r *Registry) Resolve(symbol string) (*Proc, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.procs[symbol]
	if !ok {
		return nil, fmt.Errorf("interop: undefined symbol %s (is the Fortran object registered?)", symbol)
	}
	return p, nil
}

// Symbols lists registered mangled names, sorted (for `nm`-style dumps).
func (r *Registry) Symbols() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.procs))
	for s := range r.procs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Call invokes the procedure with the given arguments, enforcing the
// by-reference convention at the call site: every argument must be a
// pointer or slice and match the registered signature.
func (p *Proc) Call(args ...any) error {
	t := p.fn.Type()
	if len(args) != t.NumIn() {
		return fmt.Errorf("interop: %s: got %d arguments, want %d", p.Symbol, len(args), t.NumIn())
	}
	in := make([]reflect.Value, len(args))
	for i, a := range args {
		v := reflect.ValueOf(a)
		if !v.IsValid() {
			return fmt.Errorf("interop: %s: argument %d is nil", p.Symbol, i)
		}
		if v.Kind() != reflect.Ptr && v.Kind() != reflect.Slice {
			return fmt.Errorf("interop: %s: argument %d passed by value (%s); Fortran requires a reference", p.Symbol, i, v.Type())
		}
		if !v.Type().AssignableTo(t.In(i)) {
			return fmt.Errorf("interop: %s: argument %d is %s, want %s", p.Symbol, i, v.Type(), t.In(i))
		}
		in[i] = v
	}
	p.fn.Call(in)
	return nil
}

// MustCall is Call that panics on convention violations; kernels use it on
// hot paths where signatures were checked at registration.
func (p *Proc) MustCall(args ...any) {
	if err := p.Call(args...); err != nil {
		panic(err)
	}
}
