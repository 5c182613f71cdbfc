package transform

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/directive"
	"repro/internal/sema"
)

// Integration tests for the sema stage threaded through the transform
// pipeline: strict mode turns clause/type mismatches into positioned
// errors, warn mode reports them without blocking codegen, and the
// lowering itself reads no types: a file lowers the same in every mode.

func strictOpts() Options {
	opts := DefaultOptions()
	opts.Sema = sema.Strict
	return opts
}

func TestSemaStrictRejectsStringReduction(t *testing.T) {
	src := `package p

func f(words []string) string {
	s := ""
	//omp parallel for reduction(+: s)
	for i := 0; i < len(words); i++ {
		s += words[i]
	}
	return s
}
`
	// Without sema the directive is syntactically fine and transforms.
	if _, err := File("t.go", []byte(src), DefaultOptions()); err != nil {
		t.Fatalf("sema-off transform failed: %v", err)
	}
	_, err := File("t.go", []byte(src), strictOpts())
	if err == nil {
		t.Fatal("strict sema accepted reduction(+:) on a string")
	}
	list, ok := err.(directive.DiagnosticList)
	if !ok {
		t.Fatalf("error is %T, want DiagnosticList", err)
	}
	var found *directive.Diagnostic
	for _, d := range list {
		if d.Kind == directive.DiagSema {
			found = d
		}
	}
	if found == nil {
		t.Fatalf("no DiagSema in %v", list)
	}
	if found.File != "t.go" || found.Line != 5 || found.Col <= 0 || found.Span <= 0 {
		t.Errorf("diagnostic not positioned at the directive: %+v", *found)
	}
	if !strings.Contains(found.Msg, "string") || !strings.Contains(found.Msg, "+") {
		t.Errorf("message %q does not name the type and operator", found.Msg)
	}
}

func TestSemaWarnKeepsOutputIdentical(t *testing.T) {
	src := `package p

func f(words []string) string {
	s := ""
	//omp parallel for reduction(+: s)
	for i := 0; i < len(words); i++ {
		s += words[i]
	}
	return s
}
`
	plain, err := File("t.go", []byte(src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Sema = sema.Warn
	out, warns, err := FileChecked("t.go", []byte(src), opts)
	if err != nil {
		t.Fatalf("warn mode blocked the transform: %v", err)
	}
	if !bytes.Equal(out, plain) {
		t.Error("warn-mode output differs from sema-off output")
	}
	if len(warns) == 0 {
		t.Fatal("warn mode produced no warnings for an ill-typed reduction")
	}
	for _, w := range warns {
		if w.Severity != directive.SevWarning {
			t.Errorf("warn-mode diagnostic has severity %v: %v", w.Severity, w)
		}
		if w.Kind != directive.DiagSema {
			t.Errorf("warn-mode diagnostic has kind %v: %v", w.Kind, w)
		}
	}
}

func TestSemaCleanFileByteIdenticalAcrossModes(t *testing.T) {
	src := `package p

func f(n int) int {
	sum := 0
	//omp parallel for reduction(+: sum) schedule(static)
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}
`
	plain, err := File("t.go", []byte(src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	strict, err := File("t.go", []byte(src), strictOpts())
	if err != nil {
		t.Fatalf("strict sema rejected a clean file: %v", err)
	}
	if !bytes.Equal(plain, strict) {
		t.Error("strict-mode output differs from sema-off output on a clean file")
	}
}

// TestSemaCollapseFieldSelectorRefined: in the bound `c.j` the name "j"
// is a field selected from c, never the loop variable, so the
// bound-independence check admits the nest in every sema mode and it
// lowers to a flattened loop.
func TestSemaCollapseFieldSelectorRefined(t *testing.T) {
	src := `package p

type cfg struct {
	j int
}

func f(c cfg, n int) int {
	sum := 0
	//omp parallel for collapse(2) reduction(+: sum)
	for j := 0; j < n; j++ {
		for k := 0; k < c.j; k++ {
			sum += j * k
		}
	}
	return sum
}
`
	for _, mode := range []sema.Mode{sema.Off, sema.Warn, sema.Strict} {
		opts := DefaultOptions()
		opts.Sema = mode
		out, err := File("t.go", []byte(src), opts)
		if err != nil {
			t.Fatalf("sema=%v rejected the field-selector bound: %v", mode, err)
		}
		if !strings.Contains(string(out), "TripCount()") || !strings.Contains(string(out), "c.j") {
			t.Errorf("sema=%v: nest did not lower to a flattened loop:\n%s", mode, out)
		}
	}
}

// TestSemaCollapseShadowRefined: an inner bound mentioning a package-level
// variable that shares the outer loop variable's name is independent of the
// loop variable; sema resolves the two objects apart.
func TestSemaCollapseShadowRefined(t *testing.T) {
	src := `package p

var limit = 8

func f(n int) int {
	sum := 0
	//omp parallel for collapse(2) reduction(+: sum)
	for i := 0; i < n; i++ {
		for k := 0; k < bound(limit); k++ {
			sum += i * k
		}
	}
	return sum
}

func bound(limit int) int { return limit }
`
	// "limit" is not a loop variable, so both modes accept this; the test
	// pins that refinement does not regress an independent bound.
	for _, opts := range []Options{DefaultOptions(), strictOpts()} {
		if _, err := File("t.go", []byte(src), opts); err != nil {
			t.Fatalf("sema=%v rejected an independent bound: %v", opts.Sema, err)
		}
	}
}

func TestSemaCollapseDuplicateLoopVarRejectedBothModes(t *testing.T) {
	src := `package p

func f(n int) int {
	sum := 0
	//omp parallel for collapse(2) reduction(+: sum)
	for j := 0; j < n; j++ {
		for j := 0; j < n; j++ {
			sum += j
		}
	}
	return sum
}
`
	for _, opts := range []Options{DefaultOptions(), strictOpts()} {
		_, err := File("t.go", []byte(src), opts)
		if err == nil {
			t.Fatalf("sema=%v accepted a collapse nest reusing the loop variable name", opts.Sema)
		}
		if !strings.Contains(err.Error(), "reuse the loop variable name") {
			t.Errorf("sema=%v: unexpected message: %v", opts.Sema, err)
		}
	}
}

func TestSemaAtomicTypeChecked(t *testing.T) {
	src := `package p

func f(parts []string) string {
	s := ""
	//omp parallel
	{
		//omp atomic
		s += parts[0]
	}
	return s
}
`
	if _, err := File("t.go", []byte(src), DefaultOptions()); err != nil {
		t.Fatalf("sema-off transform failed: %v", err)
	}
	_, err := File("t.go", []byte(src), strictOpts())
	if err == nil || !strings.Contains(err.Error(), "atomic") {
		t.Fatalf("strict sema accepted atomic string concatenation: %v", err)
	}
}

// TestFileStagesSemaReport is the E3-style pipeline dump test with the
// sema stage on: the report must show all five stages, the resolved clause
// symbols, and the emitted byte count.
func TestFileStagesSemaReport(t *testing.T) {
	src := `package p

func f(n int) int {
	sum := 0
	//omp parallel for reduction(+: sum)
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}
`
	st, err := FileStages("fig1.go", []byte(src), strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sema == nil {
		t.Fatal("Stages.Sema is nil with sema on")
	}
	if st.Sema.Mode != sema.Strict {
		t.Errorf("recorded mode = %v, want strict", st.Sema.Mode)
	}
	if len(st.Sema.Directives) != 1 {
		t.Fatalf("sema checked %d directives, want 1", len(st.Sema.Directives))
	}
	if len(st.Sema.Diags) != 0 {
		t.Errorf("clean file produced sema findings: %v", st.Sema.Diags)
	}
	rep := st.Report()
	for _, w := range []string{
		"stage 1+2: intercepted and parsed directives",
		"stage 3: semantic analysis (strict): 1 directive(s) checked",
		"reduction(+): sum var int",
		"stage 4: outlined regions",
		"stage 5: emitted",
	} {
		if !strings.Contains(rep, w) {
			t.Errorf("report missing %q:\n%s", w, rep)
		}
	}
}

// TestFileStagesSemaFindingsInReport: in warn mode the stage dump shows
// the demoted findings inline under stage 3 and still reaches stage 5.
func TestFileStagesSemaFindingsInReport(t *testing.T) {
	src := `package p

func f(words []string) string {
	s := ""
	//omp parallel for reduction(+: s)
	for i := 0; i < len(words); i++ {
		s += words[i]
	}
	return s
}
`
	opts := DefaultOptions()
	opts.Sema = sema.Warn
	st, err := FileStages("warn.go", []byte(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sema == nil || len(st.Sema.Diags) == 0 {
		t.Fatal("warn-mode stages did not record the sema finding")
	}
	rep := st.Report()
	if !strings.Contains(rep, "warning") || !strings.Contains(rep, "sema") {
		t.Errorf("report does not show the demoted finding:\n%s", rep)
	}
	if !strings.Contains(rep, "stage 5: emitted") {
		t.Errorf("warn mode did not reach emission:\n%s", rep)
	}
}

func TestSemaStagesOffRecordNil(t *testing.T) {
	src := "package p\n\nfunc f() {\n\t//omp parallel\n\t{\n\t}\n}\n"
	st, err := FileStages("off.go", []byte(src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sema != nil {
		t.Error("Stages.Sema set with sema off")
	}
	if !strings.Contains(st.Report(), "stage 3: semantic analysis (off)") {
		t.Errorf("off-mode report missing stage 3 marker:\n%s", st.Report())
	}
}
