package interop

import (
	"strings"
	"testing"
)

func TestMangle(t *testing.T) {
	cases := map[string]string{
		"daxpy":     "daxpy_",
		"CONJ_GRAD": "conj_grad_",
		"MakeA":     "makea_",
	}
	for in, want := range cases {
		if got := Mangle(in); got != want {
			t.Errorf("Mangle(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRegisterAndCall(t *testing.T) {
	r := NewRegistry()
	// daxpy: y := a*x + y, the classic by-reference BLAS-1 signature.
	err := r.Register("daxpy", func(n *int, a *float64, x []float64, y []float64) {
		for i := 0; i < *n; i++ {
			y[i] += *a * x[i]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Resolve("daxpy_")
	if err != nil {
		t.Fatal(err)
	}
	n, a := 3, 2.0
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	if err := p.Call(&n, &a, x, y); err != nil {
		t.Fatal(err)
	}
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestRegisterRejectsByValueParams(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("bad", func(n int) {}); err == nil {
		t.Error("by-value int parameter must be rejected")
	}
	if err := r.Register("bad2", func(n *int) int { return 0 }); err == nil {
		t.Error("non-void return must be rejected")
	}
	if err := r.Register("bad3", 42); err == nil {
		t.Error("non-function must be rejected")
	}
}

func TestRegisterDuplicateSymbol(t *testing.T) {
	r := NewRegistry()
	ok := func(x *int) {}
	if err := r.Register("proc", ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("PROC", ok); err == nil {
		t.Error("duplicate (case-folded) symbol must be rejected")
	}
}

func TestResolveUndefinedSymbol(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Resolve("nosuch_"); err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Errorf("want undefined-symbol error, got %v", err)
	}
}

func TestCallConventionEnforcedAtCallSite(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("scale", func(a *float64, x []float64) {
		for i := range x {
			x[i] *= *a
		}
	})
	p, _ := r.Resolve("scale_")
	a := 2.0
	if err := p.Call(a, []float64{1}); err == nil {
		t.Error("by-value argument must be rejected at call time")
	}
	if err := p.Call(&a); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	var wrong *int
	if err := p.Call(wrong, []float64{1}); err == nil {
		t.Error("type mismatch must be rejected")
	}
	if err := p.Call(&a, []float64{3}); err != nil {
		t.Errorf("valid call failed: %v", err)
	}
}

func TestSymbolsSorted(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("zeta", func(x *int) {})
	r.MustRegister("alpha", func(x *int) {})
	syms := r.Symbols()
	if len(syms) != 2 || syms[0] != "alpha_" || syms[1] != "zeta_" {
		t.Errorf("Symbols() = %v", syms)
	}
}

func TestMustCallPanicsOnViolation(t *testing.T) {
	r := NewRegistry()
	r.MustRegister("p", func(x *int) {})
	p, _ := r.Resolve("p_")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.MustCall(5)
}

func TestMustRegisterPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.MustRegister("bad", func(n int) {})
}
