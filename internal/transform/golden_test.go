package transform

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sema"
)

// goldenExamples are the gompcc-generated example programs: each commits
// both the annotated input and the generated output, which `go build ./...`
// compiles and the example run executes — pinning the whole pipeline:
// directives -> gompcc -> compilable, correct Go (the E3 / Figure 1
// end-to-end check).
var goldenExamples = []string{"pragmas", "constructs", "target"}

func TestExamplesGolden(t *testing.T) {
	for _, name := range goldenExamples {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("..", "..", "examples", name)
			src, err := os.ReadFile(filepath.Join(dir, "source.go.txt"))
			if err != nil {
				t.Fatalf("example source missing: %v", err)
			}
			want, err := os.ReadFile(filepath.Join(dir, "main.go"))
			if err != nil {
				t.Fatalf("committed output missing: %v", err)
			}
			got, err := File("examples/"+name+"/source.go.txt", src, DefaultOptions())
			if err != nil {
				t.Fatalf("transform failed: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("generated output drifted from committed examples/%s/main.go;\n"+
					"regenerate with: go run ./cmd/gompcc -o examples/%s/main.go examples/%s/source.go.txt\n"+
					"--- got ---\n%s", name, name, name, got)
			}
		})
	}
}

// TestExamplesGoldenSemaStrict: the committed examples are well-typed, so
// enabling strict semantic analysis must not change a single output byte
// (and must raise no diagnostics). This is the "zero false positives"
// guarantee over the repository's own corpus.
func TestExamplesGoldenSemaStrict(t *testing.T) {
	for _, name := range goldenExamples {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("..", "..", "examples", name)
			src, err := os.ReadFile(filepath.Join(dir, "source.go.txt"))
			if err != nil {
				t.Fatalf("example source missing: %v", err)
			}
			want, err := os.ReadFile(filepath.Join(dir, "main.go"))
			if err != nil {
				t.Fatalf("committed output missing: %v", err)
			}
			opts := DefaultOptions()
			opts.Sema = sema.Strict
			got, warns, err := FileChecked("examples/"+name+"/source.go.txt", src, opts)
			if err != nil {
				t.Fatalf("strict sema rejected a committed example: %v", err)
			}
			if len(warns) != 0 {
				t.Errorf("strict sema produced %d warnings on a committed example: %v", len(warns), warns)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("sema-strict output differs from committed examples/%s/main.go", name)
			}
		})
	}
}

// TestTransformIsIdempotent: running the preprocessor over its own output
// must change nothing (no directives remain).
func TestTransformIsIdempotent(t *testing.T) {
	for _, name := range goldenExamples {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", name, "main.go"))
		if err != nil {
			t.Fatalf("committed output missing: %v", err)
		}
		again, err := File("main.go", src, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: re-transform failed: %v", name, err)
		}
		if !bytes.Equal(again, src) {
			t.Errorf("%s: transform of generated output is not a fixpoint", name)
		}
	}
}

// TestNestedGolden pins the lowering of nested constructs: each
// testdata/nested/<name>.go.txt must transform, with sema off and strict,
// to exactly <name>.golden. The shapes are the ones where an outer
// construct reads code its inner constructs have already lowered.
func TestNestedGolden(t *testing.T) {
	srcs, err := filepath.Glob(filepath.Join("testdata", "nested", "*.go.txt"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no nested goldens found (%v)", err)
	}
	strict := DefaultOptions()
	strict.Sema = sema.Strict
	for _, path := range srcs {
		name := strings.TrimSuffix(filepath.Base(path), ".go.txt")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(strings.TrimSuffix(path, ".go.txt") + ".golden")
			if err != nil {
				t.Fatalf("golden missing: %v", err)
			}
			for _, opts := range []Options{DefaultOptions(), strict} {
				got, err := File(path, src, opts)
				if err != nil {
					t.Fatalf("sema %v: transform failed: %v", opts.Sema, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("sema %v: output drifted from %s.golden;\nregenerate with: go run ./cmd/gompcc -o internal/transform/testdata/nested/%s.golden internal/transform/testdata/nested/%s.go.txt\n--- got ---\n%s",
						opts.Sema, name, name, name, got)
				}
			}
		})
	}
}
