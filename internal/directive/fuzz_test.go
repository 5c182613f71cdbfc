package directive

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser never panics, that every diagnostic carries
// a valid in-range position, and that accepted directives survive a
// String -> Parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"parallel",
		"parallel for schedule(dynamic,4) reduction(+:sum)",
		"for collapse(2) ordered private(a) firstprivate(b)",
		"single copyprivate(x) nowait",
		"critical(name)",
		"task if(n > 2) untied",
		"task depend(in: a, b) depend(out: c) priority(2) final(n < 8)",
		"task depend(inout: m[i][j+1])",
		"taskloop grainsize(8)",
		"taskloop num_tasks(16) nogroup",
		"task depend(in: a) depend(out: a)",
		"taskloop grainsize(2) num_tasks(3)",
		"cancel parallel",
		"cancellation point for",
		"flush(a,b)",
		"sections reduction(max:m)",
		"parallel num_threads(f(x, g(y)))",
		"for schedule(monotonic:static, n*2+1)",
		"atomic capture",
		"))((",
		"parallel private()",
		"for reduction(:x)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		pos := Pos{File: "fuzz.go", Line: 3, Col: 9}
		d, diags := ParseAt(body, pos)
		// Every diagnostic must land inside (or one past) the body, with
		// a caret-able span: printers index the source line with these.
		for _, dg := range diags {
			if dg.File != pos.File || dg.Line != pos.Line {
				t.Fatalf("diagnostic at %s:%d, want %s:%d (body %q)", dg.File, dg.Line, pos.File, pos.Line, body)
			}
			off := dg.Col - pos.Col
			if off < 0 || off > len(body) {
				t.Fatalf("diagnostic col %d out of range for body %q (len %d)", dg.Col, body, len(body))
			}
			if dg.Span < 1 || off+dg.Span > len(body)+1 {
				t.Fatalf("diagnostic span %d at offset %d out of range for body %q", dg.Span, off, body)
			}
		}
		if len(diags) > 0 || d == nil {
			return // rejection is fine; panics are not
		}
		// Accepted directives render canonically and re-parse to the
		// same canonical form.
		canon := strings.TrimPrefix(d.String(), "omp ")
		d2, diags := ParseAt(canon, Pos{})
		if err := diags.Err(); err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, body, err)
		}
		if d2.String() != d.String() {
			t.Fatalf("canonical form not stable: %q -> %q", d.String(), d2.String())
		}
	})
}

// FuzzIsDirectiveComment asserts sentinel detection never panics and obeys
// the no-leading-space rule.
func FuzzIsDirectiveComment(f *testing.F) {
	for _, s := range []string{"omp parallel", " omp parallel", "#omp x", "$omp", "go:build linux", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		body, ok := IsDirectiveComment(text)
		if ok && strings.HasPrefix(text, " ") {
			t.Fatalf("leading-space comment %q accepted as directive %q", text, body)
		}
	})
}

// FuzzDependClause targets the depend clause grammar: dependence-type
// modifiers, list syntax, and duplicate items. It asserts the parser never
// panics, that every diagnostic is positioned inside the body, and that
// semantically valid inputs produce a DependClause with the right mode.
func FuzzDependClause(f *testing.F) {
	seed := func(mod, list string) { f.Add(mod, list) }
	seed("in", "a, b")
	seed("out", "x")
	seed("inout", "m[i][j+1]")
	seed("in", "a, a")          // duplicate within one clause
	seed("frob", "x")           // bad modifier
	seed("", "x")               // empty modifier
	seed("in", "")              // empty list
	seed("in", "1x")            // bad item
	seed("monotonic", "a[b[c]") // unbalanced brackets
	seed("in", "a)(b")
	f.Fuzz(func(t *testing.T, mod, list string) {
		if strings.ContainsAny(mod, "()") || strings.ContainsAny(list, "()") {
			// Parens would close the clause early: legal input, but then
			// the tail is a different clause — not this fuzzer's target.
			return
		}
		pos := Pos{File: "fuzz.go", Line: 7, Col: 11}
		body := "task depend(" + mod + ": " + list + ") depend(out: zz)"
		d, diags := ParseAt(body, pos)
		for _, dg := range diags {
			if dg.Line != pos.Line || dg.Col < pos.Col || dg.Col-pos.Col > len(body) {
				t.Fatalf("diagnostic out of range for %q: %+v", body, dg)
			}
			if dg.Span < 1 {
				t.Fatalf("empty span for %q: %+v", body, dg)
			}
		}
		if d == nil {
			t.Fatalf("task construct not recognised for %q", body)
		}
		wantMode, validMod := map[string]DepMode{
			"in": DependIn, "out": DependOut, "inout": DependInOut,
		}[strings.TrimSpace(mod)]
		deps := d.Depends()
		if !validMod {
			// Bad modifier: the malformed clause must be dropped with a
			// diagnostic, and recovery must still parse the good clause.
			if len(diags) == 0 {
				t.Fatalf("bad modifier %q accepted silently in %q", mod, body)
			}
			if len(deps) != 1 || deps[0].Vars[0] != "zz" {
				t.Fatalf("recovery lost the trailing depend clause in %q: %v", body, deps)
			}
			return
		}
		if len(deps) == 2 && deps[0].Mode != wantMode {
			t.Fatalf("mode %v for modifier %q in %q", deps[0].Mode, mod, body)
		}
		// Valid mode + all items well-formed and unique => clean parse.
		items := splitTop(list, ',')
		clean := true
		seen := map[string]bool{}
		for _, it := range items {
			if !isDependItem(it) || seen[it] || it == "zz" {
				clean = false
			}
			seen[it] = true
		}
		if clean && len(diags) != 0 {
			t.Fatalf("well-formed depend(%s: %s) rejected: %v", mod, list, diags)
		}
	})
}
