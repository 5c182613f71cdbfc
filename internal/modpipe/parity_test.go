package modpipe

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/directive"
	"repro/internal/sema"
	"repro/internal/transform"
)

// collapseNest is a collapse(2) nest over the outer loop variable whose
// inner bound is the given expression.
func collapseNest(imports, outer, bound string) string {
	return fmt.Sprintf(`package p
%s

type cfg struct {
	j int
}

func (c cfg) f(v int) int { return v }

func f(c cfg, n int) int {
	sum := 0
	//omp parallel for collapse(2) reduction(+: sum)
	for %[2]s := 0; %[2]s < n; %[2]s++ {
		for k := 0; k < %[3]s; k++ {
			sum += k
		}
	}
	return sum
}
`, imports, outer, bound)
}

// TestSingleFileModuleParity: the lowering reads no types, so a file lowers
// to the same bytes under every sema mode, and the single-file transformer
// and the module pipeline agree on each file's output and on its error set.
func TestSingleFileModuleParity(t *testing.T) {
	type input struct {
		name, src string
		reject    bool // the collapse nest must be rejected in every mode
	}
	inputs := []input{
		{name: "field", src: collapseNest("", "j", "c.j")},
		{name: "method", src: collapseNest("", "f", "c.f(n)")},
		{name: "pkgmember", src: collapseNest(`import "strconv"`, "IntSize", "strconv.IntSize")},
		{name: "callarg", src: collapseNest("", "j", "c.f(j)"), reject: true},
		{name: "selectorbase", src: collapseNest("", "j", "j.x"), reject: true},
		{name: "plain", src: collapseNest("", "j", "j"), reject: true},
	}
	var files []string
	for _, pattern := range []string{"../../examples/*/source.go.txt", "../transform/testdata/nested/*.go.txt"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 4 {
		t.Fatalf("found only %d example and nested sources", len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(filepath.Dir(f)) + "_" + strings.TrimSuffix(filepath.Base(f), ".go.txt")
		inputs = append(inputs, input{name: name, src: string(src)})
	}

	for _, in := range inputs {
		name := in.name + ".go"
		var lowered []byte
		for _, mode := range []sema.Mode{sema.Off, sema.Warn, sema.Strict} {
			opts := transform.DefaultOptions()
			opts.Sema = mode
			out, warns, err := transform.FileChecked(name, []byte(in.src), opts)
			single := slices.Clone(warns)
			if err != nil {
				single = append(single, asDiagnostics(name, err)...)
				single.Sort()
			}

			root := t.TempDir()
			if err := os.WriteFile(filepath.Join(root, name), []byte(in.src), 0o644); err != nil {
				t.Fatal(err)
			}
			res, rerr := Run(root, Options{Workers: 1, Sema: mode})
			if rerr != nil {
				t.Fatal(rerr)
			}
			if len(res.Files) != 1 {
				t.Fatalf("%s: module run saw %d files", name, len(res.Files))
			}

			if got, want := diagLines(res.Diags), diagLines(single); got != want {
				t.Errorf("%s sema=%v: module errors\n%s\nsingle-file errors\n%s", name, mode, got, want)
			}
			if !bytes.Equal(res.Files[0].Output, out) {
				t.Errorf("%s sema=%v: module output differs from single-file output:\n%s\n---\n%s",
					name, mode, res.Files[0].Output, out)
			}
			if in.reject {
				if err == nil || !strings.Contains(err.Error(), "must not depend on the outer loop variable") {
					t.Errorf("%s sema=%v: bound dependence not rejected: %v", name, mode, err)
				}
				continue
			}
			if out == nil {
				if mode != sema.Strict {
					t.Errorf("%s sema=%v: rejected: %v", name, mode, err)
				}
				continue
			}
			if lowered == nil {
				lowered = out
			} else if !bytes.Equal(out, lowered) {
				t.Errorf("%s: output under sema=%v differs from an earlier mode's", name, mode)
			}
		}
	}
}

// diagLines renders a diagnostic list one diagnostic a line, in order.
func diagLines(l directive.DiagnosticList) string {
	var b strings.Builder
	for _, d := range l {
		fmt.Fprintf(&b, "%s:%d:%d+%d %v %v %s\n", d.File, d.Line, d.Col, d.Span, d.Kind, d.Severity, d.Msg)
	}
	return b.String()
}
