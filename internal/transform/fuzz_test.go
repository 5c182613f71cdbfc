package transform

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/directive"
	"repro/internal/modpipe/corpusgen"
	"repro/internal/sema"
)

// FuzzFile asserts the preprocessor never panics, that whatever it emits
// is syntactically valid Go, and that an input without a directive comment
// is emitted byte for byte.
func FuzzFile(f *testing.F) {
	seeds := []string{
		"package p\n\nfunc f(n int) {\n//omp parallel\n{\n_ = n\n}\n}\n",
		"package p\n\nfunc f(n int) {\nsum := 0\n//omp parallel for reduction(+:sum)\nfor i := 0; i < n; i++ {\nsum += i\n}\n_ = sum\n}\n",
		"package p\n\nfunc f(n int) {\n//omp parallel\n{\n//omp for nowait\nfor i := 0; i < n; i++ {\n_ = i\n}\n//omp barrier\n}\n}\n",
		"package p\n\nfunc f() {\n//omp bogus\n{\n}\n}\n",
		"package p\n",
		"not go at all",
		"package p\n\nfunc f(n int) {\n//omp parallel for collapse(2)\nfor i := 0; i < n; i++ {\nfor j := 0; j < n; j++ {\n_ = i+j\n}\n}\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// The corpus generator's directive vocabulary — every valid region
	// template and every malformed-directive template — seeds the fuzzer
	// too, so mutation starts from the same shapes the whole-module
	// stress corpus exercises.
	for _, s := range corpusgen.ValidSeedFiles() {
		f.Add(s)
	}
	for _, s := range corpusgen.MalformedSeedFiles() {
		f.Add(s)
	}
	for _, s := range corpusgen.IllTypedSeedFiles() {
		f.Add(s)
	}
	for _, s := range notGofmtClean {
		f.Add(s)
	}
	strict := DefaultOptions()
	strict.Sema = sema.Strict
	f.Fuzz(func(t *testing.T, src string) {
		// Both sema-off and strict paths must diagnose-or-transform,
		// never panic; the strict path additionally drives go/types over
		// arbitrary bytes.
		for _, opts := range []Options{DefaultOptions(), strict} {
			out, err := File("fuzz.go", []byte(src), opts)
			if err != nil {
				continue // diagnostics are fine; panics and bad output are not
			}
			fset := token.NewFileSet()
			if _, perr := parser.ParseFile(fset, "out.go", out, 0); perr != nil {
				t.Fatalf("emitted invalid Go (sema=%v): %v\n--- input ---\n%s\n--- output ---\n%s", opts.Sema, perr, src, out)
			}
			if !hasDirectiveComment(src) && string(out) != src {
				t.Fatalf("directive-free input not emitted verbatim (sema=%v)\n--- input ---\n%q\n--- output ---\n%q", opts.Sema, src, out)
			}
		}
	})
}

// hasDirectiveComment reports whether src, which parses, carries a line
// comment that directive.IsDirectiveComment recognises.
func hasDirectiveComment(src string) bool {
	file, err := parser.ParseFile(token.NewFileSet(), "in.go", src, parser.ParseComments)
	if err != nil {
		return true // no contract for input that does not parse
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if text, ok := strings.CutPrefix(c.Text, "//"); ok {
				if _, ok := directive.IsDirectiveComment(text); ok {
					return true
				}
			}
		}
	}
	return false
}
