package transform

import (
	"strings"
	"testing"

	"repro/internal/directive"
)

// fixtureThreeBadDirectives has three independently bad directive sites: an
// unknown construct (line 4), a bad schedule kind (line 6), and worksharing
// outside any parallel region (line 10). One File call must report all of
// them.
const fixtureThreeBadDirectives = `package p

func f(n int) {
	//omp frobnicate
	{
	}
	//omp parallel for schedule(chaotic)
	for i := 0; i < n; i++ {
		_ = i
	}
	//omp for
	for i := 0; i < n; i++ {
		_ = i
	}
}
`

func TestFileAggregatesDiagnostics(t *testing.T) {
	_, err := File("bad.go", []byte(fixtureThreeBadDirectives), DefaultOptions())
	if err == nil {
		t.Fatal("expected diagnostics")
	}
	diags, ok := err.(directive.DiagnosticList)
	if !ok {
		t.Fatalf("error is %T, want directive.DiagnosticList: %v", err, err)
	}
	if len(diags) < 3 {
		t.Fatalf("got %d diagnostics, want >= 3:\n%v", len(diags), diags)
	}
	wantLines := map[int]directive.DiagKind{
		4:  directive.DiagUnknownConstruct,
		7:  directive.DiagBadClauseArg,
		11: directive.DiagBadNesting,
	}
	for line, kind := range wantLines {
		found := false
		for _, d := range diags {
			if d.Line == line && d.Kind == kind {
				found = true
			}
		}
		if !found {
			t.Errorf("no %v diagnostic on line %d in:\n%v", kind, line, diags)
		}
	}
	for i, d := range diags {
		if d.File != "bad.go" || d.Line <= 0 || d.Col <= 0 || d.Span < 1 {
			t.Errorf("diags[%d] lacks a real position: %+v", i, d)
		}
		if i > 0 && diags[i-1].Line > d.Line {
			t.Errorf("diagnostics not sorted by position: %v before %v", diags[i-1], d)
		}
	}
}

func TestDiagnosticColumnsPointIntoDirective(t *testing.T) {
	// The bad schedule clause starts at a known column; the diagnostic
	// must point at the clause keyword inside the comment, not at the
	// comment or line start.
	src := "package p\n\nfunc f(n int) {\n\t//omp parallel for schedule(chaotic)\n\tfor i := 0; i < n; i++ {\n\t\t_ = i\n\t}\n}\n"
	_, err := File("col.go", []byte(src), DefaultOptions())
	diags, ok := err.(directive.DiagnosticList)
	if !ok || len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %v", err)
	}
	line := "\t//omp parallel for schedule(chaotic)"
	wantCol := strings.Index(line, "schedule") + 1
	d := diags[0]
	if d.Line != 4 || d.Col != wantCol || d.Span != len("schedule") {
		t.Errorf("diagnostic at %d:%d span %d, want 4:%d span %d (%s)",
			d.Line, d.Col, d.Span, wantCol, len("schedule"), d.Msg)
	}
}

func TestCleanFileStillTransforms(t *testing.T) {
	// The aggregation pre-flight must not disturb a valid file.
	src := `package p

func f(n int) {
	sum := 0
	//omp parallel for reduction(+:sum)
	for i := 0; i < n; i++ {
		sum += i
	}
	_ = sum
}
`
	out, err := File("ok.go", []byte(src), DefaultOptions())
	if err != nil {
		t.Fatalf("File: %v", err)
	}
	for _, want := range []string{"gomp.Parallel(", "ForLoop(", "__omp_red_sum"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// fixtureBadTaskClauses has three independently bad tasking directives: a
// depend clause with a bad dependence type (line 5), a duplicate dependence
// item across clauses (line 9), and grainsize with num_tasks (line 13). One
// File call must report all three with positions.
const fixtureBadTaskClauses = `package p

func g(n int, x []float64) {
	//omp parallel
	{
		//omp task depend(frob: x)
		{
			_ = x
		}
		//omp task depend(in: x) depend(out: x)
		{
			_ = x
		}
		//omp taskloop grainsize(2) num_tasks(4)
		for i := 0; i < n; i++ {
			_ = i
		}
	}
}
`

func TestFileAggregatesTaskClauseDiagnostics(t *testing.T) {
	_, err := File("badtask.go", []byte(fixtureBadTaskClauses), DefaultOptions())
	if err == nil {
		t.Fatal("expected diagnostics")
	}
	diags, ok := err.(directive.DiagnosticList)
	if !ok {
		t.Fatalf("error is %T, want directive.DiagnosticList: %v", err, err)
	}
	wantLines := map[int]directive.DiagKind{
		6:  directive.DiagBadClauseArg,
		10: directive.DiagConflictingClauses,
		14: directive.DiagConflictingClauses,
	}
	for line, kind := range wantLines {
		found := false
		for _, d := range diags {
			if d.Line == line && d.Kind == kind {
				found = true
			}
		}
		if !found {
			t.Errorf("no %v diagnostic on line %d in:\n%v", kind, line, diags)
		}
	}
	for _, d := range diags {
		if d.File != "badtask.go" || d.Line <= 0 || d.Col <= 0 || d.Span < 1 {
			t.Errorf("diagnostic without full position: %+v", d)
		}
	}
}

// TestInnerDirectiveOutsideOuterBodyDiagnosed: a directive in the header of
// a loop that an enclosing directive lowers is not part of the code the
// outer lowering outlines. It is reported at its own position, not lost.
func TestInnerDirectiveOutsideOuterBodyDiagnosed(t *testing.T) {
	for _, src := range []string{
		"package p\n\nfunc f(n int) {\n\t//omp parallel for\n\tfor i := 0; i < n; //omp critical\n\ti++ {\n\t\t_ = i\n\t}\n}\n",
		"package p\n\nfunc f(n int) {\n\t//omp parallel\n\t{\n\t\t//omp for\n\t\tfor i := 0; //omp barrier\n\t\ti < n; i++ {\n\t\t\t_ = i\n\t\t}\n\t}\n}\n",
	} {
		_, err := File("hdr.go", []byte(src), DefaultOptions())
		diags, ok := err.(directive.DiagnosticList)
		if !ok || len(diags) != 1 {
			t.Fatalf("want one diagnostic, got %v for:\n%s", err, src)
		}
		if d := diags[0]; d.Kind != directive.DiagBadNesting || !strings.Contains(d.Msg, "is lost when the enclosing") {
			t.Errorf("got %v, want the inner directive reported as lost", d)
		}
	}
}

// TestCollapseNestBrokenByInnerDirective: a directive on the inner loop of
// a collapse(2) nest, or a standalone one before it, leaves the outer body
// reading as something other than one for statement once it is lowered,
// so the nest is not perfect.
func TestCollapseNestBrokenByInnerDirective(t *testing.T) {
	for _, inner := range []string{"//omp critical", "//omp barrier\n"} {
		src := "package p\n\nfunc f(n int) {\n//omp parallel\n{\n//omp for collapse(2)\nfor i := 0; i < n; i++ {\n" +
			inner + "\nfor j := 0; j < n; j++ {\n_ = i + j\n}\n}\n}\n}\n"
		_, err := File("nest.go", []byte(src), DefaultOptions())
		diags, ok := err.(directive.DiagnosticList)
		if !ok || len(diags) != 1 || diags[0].Kind != directive.DiagBadLoop ||
			!strings.Contains(diags[0].Msg, "requires a perfectly nested for loop at depth 2") {
			t.Errorf("got %v, want one imperfect-nest diagnostic for:\n%s", err, src)
		}
	}
}

// TestAggregatesLoweringFailures: every site is lowered once and every
// failure is collected, so an error that only shows once an inner
// directive is lowered (the collapse nest broken by a critical) is
// reported alongside an unrelated one elsewhere in the file.
func TestAggregatesLoweringFailures(t *testing.T) {
	src := `package p

func orphan(n int) {
	//omp for
	for i := 0; i < n; i++ {
	}
}

func nest(n int) {
	//omp parallel
	{
		//omp for collapse(2)
		for i := 0; i < n; i++ {
			//omp critical
			for j := 0; j < n; j++ {
				_ = i + j
			}
		}
	}
}
`
	_, err := File("agg.go", []byte(src), DefaultOptions())
	diags, ok := err.(directive.DiagnosticList)
	if !ok || len(diags) != 2 {
		t.Fatalf("got %v, want two diagnostics", err)
	}
	if diags[0].Line != 4 || diags[0].Kind != directive.DiagBadNesting || !strings.Contains(diags[0].Msg, "orphaned worksharing") {
		t.Errorf("first diagnostic %v, want the orphaned omp for at line 4", diags[0])
	}
	if diags[1].Line != 12 || diags[1].Kind != directive.DiagBadLoop ||
		!strings.Contains(diags[1].Msg, "requires a perfectly nested for loop at depth 2") {
		t.Errorf("second diagnostic %v, want the broken collapse nest at line 12", diags[1])
	}
}
