package transform

import (
	"go/format"
	"strings"
	"testing"

	"repro/internal/directive"
	"repro/internal/sema"
)

// xform transforms a snippet wrapped in a package and function, failing the
// test on error.
func xform(t *testing.T, body string) string {
	t.Helper()
	src := "package p\n\nfunc f(n int, a, b []float64) {\n" + body + "\n}\n"
	out, err := File("test.go", []byte(src), DefaultOptions())
	if err != nil {
		t.Fatalf("File: %v\ninput:\n%s", err, src)
	}
	return string(out)
}

// xformErr transforms expecting an error.
func xformErr(t *testing.T, body string) error {
	t.Helper()
	src := "package p\n\nfunc f(n int, a, b []float64) {\n" + body + "\n}\n"
	_, err := File("test.go", []byte(src), DefaultOptions())
	if err == nil {
		t.Fatalf("expected error for:\n%s", src)
	}
	return err
}

func wantContains(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

func wantNotContains(t *testing.T, out string, donts ...string) {
	t.Helper()
	for _, w := range donts {
		if strings.Contains(out, w) {
			t.Errorf("output must not contain %q:\n%s", w, out)
		}
	}
}

// notGofmtClean are directive-free inputs that go/format would rewrite.
var notGofmtClean = map[string]string{
	"trailing blank lines": "package p\n\nfunc f() int { return 1 }\n\n\n",
	"space indentation":    "package p\n\nfunc f(n int) int {\n    if n > 0 {\n        return n\n    }\n    return 0\n}\n",
	"unsorted imports":     "package p\n\nimport (\n\t\"strings\"\n\t\"fmt\"\n)\n\nvar _ = fmt.Sprint\nvar _ = strings.Repeat\n",
	"plain comments only":  "package p\n\n// a comment that is not a directive\nfunc  f() {}\n",
}

// TestNoDirectivesPassThrough: a file in which nothing is lowered comes
// back byte for byte, with and without strict sema, even where gofmt would
// change it.
func TestNoDirectivesPassThrough(t *testing.T) {
	strict := DefaultOptions()
	strict.Sema = sema.Strict
	cases := map[string]string{"gofmt-clean": "package p\n\nfunc f() int { return 1 }\n"}
	for name, src := range notGofmtClean {
		if gofmted, err := format.Source([]byte(src)); err != nil || string(gofmted) == src {
			t.Fatalf("%s: input must be valid Go that gofmt rewrites (err=%v)", name, err)
		}
		cases[name] = src
	}
	for name, src := range cases {
		for _, opts := range []Options{DefaultOptions(), strict} {
			out, err := File("t.go", []byte(src), opts)
			if err != nil {
				t.Fatalf("%s, sema=%v: %v", name, opts.Sema, err)
			}
			if string(out) != src {
				t.Errorf("%s, sema=%v: output differs from input:\n--- in ---\n%q\n--- out ---\n%q", name, opts.Sema, src, out)
			}
		}
	}
}

// TestNoDirectivesSyntaxErrorDiagnosed: without a directive to lower, a
// file that does not parse still gets a positioned syntax diagnostic and
// no output.
func TestNoDirectivesSyntaxErrorDiagnosed(t *testing.T) {
	src := "package p\n\nfunc f() {\n    x := \n}\n"
	out, err := File("bad.go", []byte(src), DefaultOptions())
	if out != nil {
		t.Errorf("output emitted for a file that does not parse:\n%s", out)
	}
	list, ok := err.(directive.DiagnosticList)
	if !ok || len(list) == 0 {
		t.Fatalf("want a DiagnosticList, got %T: %v", err, err)
	}
	if d := list[0]; d.Kind != directive.DiagSyntax || d.File != "bad.go" || d.Line != 5 {
		t.Errorf("want a syntax diagnostic at bad.go:5, got %+v", d)
	}
}

func TestParallelBlock(t *testing.T) {
	out := xform(t, `
	x := 0
	//omp parallel
	{
		x++
	}
	_ = x`)
	wantContains(t, out,
		"gomp.Parallel(func(__omp_t *gomp.Thread) {",
		"x++",
		`import gomp "repro"`,
	)
	wantNotContains(t, out, "//omp")
}

func TestParallelClauses(t *testing.T) {
	out := xform(t, `
	x := 1
	y := 2.5
	//omp parallel private(x) firstprivate(y) num_threads(n) if(n > 1)
	{
		_ = x
		_ = y
	}
	_, _ = x, y`)
	wantContains(t, out,
		"x := gomp.Zero(x)",
		"y := y",
		"gomp.NumThreads(n)",
		"gomp.If(n > 1)",
	)
}

func TestParallelForReduction(t *testing.T) {
	out := xform(t, `
	sum := 0.0
	//omp parallel for reduction(+:sum) schedule(static)
	for i := 0; i < n; i++ {
		sum += a[i] * b[i]
	}
	_ = sum`)
	wantContains(t, out,
		"gomp.Parallel(func(__omp_t *gomp.Thread) {",
		"__omp_red_sum := &sum",
		"sum := gomp.Zero(sum)",
		"__omp_loop := gomp.Loop{Begin: int64(0), End: int64(n), Step: int64(1)}",
		"__omp_t.ForLoop(__omp_loop, func(__omp_i int64) {",
		"i := int(__omp_i)",
		"gomp.Schedule(gomp.Static, 0)",
		"gomp.NoWait()", // reduction loop runs nowait; epilogue barriers
		`__omp_t.Critical("\x00omp.reduction", func() {`,
		"*__omp_red_sum += sum",
	)
	// Combined construct: the region's join is the final barrier, so no
	// explicit barrier call needed... but the loop-level epilogue adds one
	// (harmless); just confirm the code formats and parses.
}

func TestReductionOperatorLowerings(t *testing.T) {
	cases := []struct {
		op       string
		identity string
		combine  string
	}{
		{"+", "gomp.Zero(v)", "*__omp_red_v += v"},
		{"*", "gomp.One(v)", "*__omp_red_v *= v"},
		{"max", "gomp.Smallest(v)", "if v > *__omp_red_v { *__omp_red_v = v }"},
		{"min", "gomp.Largest(v)", "if v < *__omp_red_v { *__omp_red_v = v }"},
		{"&", "gomp.AllOnes(v)", "*__omp_red_v &= v"},
		{"|", "gomp.Zero(v)", "*__omp_red_v |= v"},
		{"^", "gomp.Zero(v)", "*__omp_red_v ^= v"},
	}
	for _, c := range cases {
		out := xform(t, `
	v := 0
	//omp parallel for reduction(`+c.op+`:v)
	for i := 0; i < n; i++ {
		v = v + i
	}
	_ = v`)
		wantContains(t, out, "v := "+c.identity)
		// gofmt may reflow the combine; compare without tabs/newlines.
		flat := strings.ReplaceAll(strings.ReplaceAll(out, "\n", " "), "\t", "")
		flatWant := c.combine
		if !strings.Contains(strings.Join(strings.Fields(flat), " "), strings.Join(strings.Fields(flatWant), " ")) {
			t.Errorf("op %s: output missing combine %q:\n%s", c.op, c.combine, out)
		}
	}
}

func TestOrphanedForRejected(t *testing.T) {
	err := xformErr(t, `
	//omp for
	for i := 0; i < n; i++ {
		_ = i
	}`)
	if !strings.Contains(err.Error(), "nested inside") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestParallelThenForSplit(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		//omp for schedule(dynamic,4) nowait
		for i := 0; i < n; i++ {
			_ = i
		}
		//omp barrier
	}`)
	wantContains(t, out,
		"gomp.Parallel(func(__omp_t *gomp.Thread) {",
		"gomp.Schedule(gomp.Dynamic, 4)",
		"gomp.NoWait()",
		"__omp_t.Barrier()",
	)
	wantNotContains(t, out, "//omp")
}

func TestLoopForms(t *testing.T) {
	// <= bound
	out := xform(t, `
	//omp parallel for
	for i := 1; i <= n; i++ {
		_ = i
	}`)
	wantContains(t, out, "End: int64((n) + 1)")

	// descending
	out = xform(t, `
	//omp parallel for
	for i := n; i > 0; i-- {
		_ = i
	}`)
	wantContains(t, out, "Step: int64(-1)")

	// strided
	out = xform(t, `
	//omp parallel for
	for i := 0; i < n; i += 3 {
		_ = i
	}`)
	wantContains(t, out, "Step: int64((3))")
}

func TestNonCanonicalLoopRejected(t *testing.T) {
	for _, loop := range []string{
		"for { break }",
		"for i := 0; i < n; i *= 2 { _ = i }",
		"for i, j := 0, 1; i < n; i++ { _, _ = i, j }",
		"for i := 0; n > i; i++ { _ = i }",
		"for i := 0; i != n; i++ { _ = i }",
		"for i := n; i > 0; i++ { _ = i }",
	} {
		xformErr(t, "//omp parallel for\n"+loop)
	}
}

func TestCollapse2(t *testing.T) {
	out := xform(t, `
	//omp parallel for collapse(2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			_ = i + j
		}
	}`)
	wantContains(t, out,
		"__omp_l1 := gomp.Loop{",
		"__omp_l2 := gomp.Loop{",
		"__omp_n2 := __omp_l2.TripCount()",
		"i := int(__omp_l1.Iteration(__omp_i / __omp_n2))",
		"j := int(__omp_l2.Iteration(__omp_i % __omp_n2))",
	)
}

func TestCollapse2DependentBoundsRejected(t *testing.T) {
	err := xformErr(t, `
	//omp parallel for collapse(2)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			_ = j
		}
	}`)
	if !strings.Contains(err.Error(), "must not depend") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestLastprivate(t *testing.T) {
	out := xform(t, `
	last := 0
	//omp parallel for lastprivate(last)
	for i := 0; i < n; i++ {
		last = i
	}
	_ = last`)
	wantContains(t, out,
		"__omp_last_last := &last",
		"last := gomp.Zero(last)",
		"__omp_lastval := __omp_loop.Iteration(__omp_loop.TripCount() - 1)",
		"if __omp_i == __omp_lastval {",
		"*__omp_last_last = last",
	)
}

func TestSingleMasterCritical(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		//omp single
		{
			_ = n
		}
		//omp master
		{
			_ = n
		}
		//omp critical(queue)
		{
			_ = n
		}
		//omp critical
		{
			_ = n
		}
	}`)
	wantContains(t, out,
		"__omp_t.Single(func() {",
		"__omp_t.Master(func() {",
		`__omp_t.Critical("queue", func()`,
		`__omp_t.Critical("", func()`,
	)
}

func TestSingleCopyprivate(t *testing.T) {
	out := xform(t, `
	x := 0
	//omp parallel
	{
		//omp single copyprivate(x)
		{
			x = 42
		}
		_ = x
	}`)
	wantContains(t, out,
		"__omp_cp := __omp_t.SingleCopy(func() any {",
		"return []any{x}",
		"gomp.CopyAssign(&x, __omp_cp[0])",
	)
}

func TestCriticalOutsideParallelFallsBack(t *testing.T) {
	out := xform(t, `
	//omp critical(log)
	{
		_ = n
	}`)
	wantContains(t, out, `gomp.Critical("log", func()`)
}

func TestAtomic(t *testing.T) {
	out := xform(t, `
	x := 0
	//omp parallel
	{
		//omp atomic
		x++
	}
	_ = x`)
	wantContains(t, out, `__omp_t.Critical("\x00omp.atomic", func() {`)
}

func TestSections(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		//omp sections
		{
			//omp section
			_ = n
			//omp section
			_ = n + 1
		}
	}`)
	wantContains(t, out, "__omp_t.Sections([]func(){")
	wantNotContains(t, out, "//omp")
	if got := strings.Count(out, "func() {"); got < 2 {
		t.Errorf("expected at least 2 section closures, got %d:\n%s", got, out)
	}
}

func TestParallelSections(t *testing.T) {
	out := xform(t, `
	//omp parallel sections num_threads(2)
	{
		_ = n
		_ = n + 1
	}`)
	wantContains(t, out,
		"gomp.Parallel(func(__omp_t *gomp.Thread) {",
		"__omp_t.Sections([]func(){",
		"gomp.NumThreads(2)",
	)
}

func TestTaskConstructs(t *testing.T) {
	out := xform(t, `
	x := 1
	//omp parallel
	{
		//omp task firstprivate(x)
		{
			_ = x
		}
		//omp taskwait
		//omp taskgroup
		{
			_ = n
		}
	}
	_ = x`)
	wantContains(t, out,
		"__omp_t.Task(func(__omp_t *gomp.Thread) {",
		"x := x", // creation-time snapshot
		"__omp_t.Taskwait()",
		"__omp_t.Taskgroup(func() {",
	)
}

func TestTaskloop(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		//omp taskloop grainsize(8)
		for i := 0; i < n; i++ {
			_ = i
		}
	}`)
	wantContains(t, out,
		"__omp_t.Taskloop(int(__omp_loop.TripCount()), 8, func(__omp_k int) {",
		"i := int(__omp_loop.Iteration(int64(__omp_k)))",
	)
}

func TestOrderedRegion(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		//omp for ordered schedule(dynamic,1)
		for i := 0; i < n; i++ {
			//omp ordered
			{
				_ = i
			}
		}
	}`)
	wantContains(t, out,
		"__omp_t.ForOrdered(int(__omp_loop.TripCount()), func(__omp_k int, __omp_ord *gomp.OrderedCtx) {",
		"__omp_ord.Do(func() {",
	)
}

func TestOrderedOutsideOrderedLoopRejected(t *testing.T) {
	xformErr(t, `
	//omp parallel
	{
		//omp ordered
		{
			_ = n
		}
	}`)
}

func TestBarrierOutsideParallelRejected(t *testing.T) {
	xformErr(t, "//omp barrier")
}

func TestFlushErased(t *testing.T) {
	out := xform(t, `
	x := 0
	//omp parallel
	{
		x++
		//omp flush
	}
	_ = x`)
	wantNotContains(t, out, "flush", "Flush")

	// A file whose only directive is a flush was still lowered, so it is
	// rewritten and gofmt'd whole like any other.
	src := "package p\n\nfunc f() {\n    x := 0\n    //omp flush\n    _ = x\n}\n\n"
	only, err := File("t.go", []byte(src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantNotContains(t, string(only), "flush")
	if gofmted, err := format.Source(only); err != nil || string(gofmted) != string(only) {
		t.Errorf("flush-only file is not gofmt'd (err=%v):\n%s", err, only)
	}
}

func TestBadDirectiveReportsPosition(t *testing.T) {
	err := xformErr(t, `
	//omp parallel frobnicate(x)
	{
		_ = n
	}`)
	if !strings.Contains(err.Error(), "test.go:") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestDirectiveWithoutStatementRejected(t *testing.T) {
	src := "package p\n\nfunc f() {\n\t_ = 1\n\t//omp parallel\n}\n"
	if _, err := File("t.go", []byte(src), DefaultOptions()); err == nil {
		t.Error("expected error for trailing directive")
	}
}

func TestNestedParallel(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		//omp parallel num_threads(2)
		{
			_ = n
		}
	}`)
	// The inner region forks from the enclosing thread.
	wantContains(t, out, "__omp_t.Parallel(func(__omp_t *gomp.Thread) {")
}

func TestGeneratedOutputIsGofmt(t *testing.T) {
	out := xform(t, `
	sum := 0.0
	//omp parallel for reduction(+:sum)
	for i := 0; i < n; i++ {
		sum += a[i]
	}
	_ = sum`)
	// format.Source was applied; spot-check canonical spacing.
	if strings.Contains(out, "\t ") || strings.Contains(out, "  \t") {
		t.Error("output does not look gofmt'ed")
	}
}

func TestImportAddedOnce(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		_ = n
	}
	//omp parallel
	{
		_ = n
	}`)
	if strings.Count(out, `"repro"`) != 1 {
		t.Errorf("import appears %d times:\n%s", strings.Count(out, `"repro"`), out)
	}
}

func TestExistingImportPreserved(t *testing.T) {
	src := `package p

import gomp "repro"

func f(n int) {
	gomp.SetNumThreads(2)
	//omp parallel
	{
		_ = n
	}
}
`
	out, err := File("t.go", []byte(src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(out), `"repro"`) != 1 {
		t.Errorf("duplicate import:\n%s", out)
	}
}

func TestFileStagesPipeline(t *testing.T) {
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
	st, err := FileStages("fig1.go", []byte(src), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Scanned) != 1 {
		t.Fatalf("scanned %d directives", len(st.Scanned))
	}
	if st.Scanned[0].Parsed.Construct.String() != "parallel for" {
		t.Errorf("parsed construct = %v", st.Scanned[0].Parsed.Construct)
	}
	if len(st.Lowered) != 1 {
		t.Fatalf("lowered %d steps", len(st.Lowered))
	}
	if st.Lowered[0].Outlined < 2 { // region closure + loop closure
		t.Errorf("outlined %d functions, want >= 2", st.Lowered[0].Outlined)
	}
	rep := st.Report()
	for _, w := range []string{"stage 1+2", "stage 3", "stage 4", "parallel for"} {
		if !strings.Contains(rep, w) {
			t.Errorf("report missing %q:\n%s", w, rep)
		}
	}
}

func TestTaskDependLowering(t *testing.T) {
	out := xform(t, `
	x := 0.0
	//omp parallel
	{
		//omp task depend(out: x) priority(2)
		{
			x = 1
		}
		//omp task depend(in: x) final(n > 4) if(n > 2)
		{
			_ = x
		}
		//omp task depend(inout: a) depend(in: b)
		{
			_ = a
		}
		//omp taskwait
	}
	_ = x`)
	wantContains(t, out,
		"gomp.DependOut(&x)",
		"gomp.Priority(2)",
		"gomp.DependIn(&x)",
		"gomp.Final(n > 4)",
		"gomp.TaskIf(n > 2)",
		"gomp.DependInOut(&a), gomp.DependIn(&b)",
	)
}

func TestTaskloopModesLowering(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		//omp taskloop num_tasks(4) nogroup priority(1)
		for i := 0; i < n; i++ {
			_ = i
		}
	}`)
	wantContains(t, out,
		"__omp_t.Taskloop(int(__omp_loop.TripCount()), 0, func(__omp_k int) {",
		"gomp.Priority(1)",
		"gomp.NumTasks(4)",
		"gomp.NoGroup()",
	)
}

func TestDependElementLowering(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		for k := 1; k < n; k++ {
			//omp task depend(in: a[k-1]) depend(inout: a[k])
			{
				a[k] += a[k-1]
			}
		}
	}`)
	wantContains(t, out, "gomp.DependIn(&a[k-1])", "gomp.DependInOut(&a[k])")
}

func TestScheduleModifierLowering(t *testing.T) {
	// nonmonotonic:dynamic selects the work-stealing scheduler.
	out := xform(t, `
	//omp parallel for schedule(nonmonotonic:dynamic, 4)
	for i := 0; i < n; i++ {
		_ = i
	}`)
	wantContains(t, out, "gomp.Schedule(gomp.Steal, 4)")

	// monotonic pins the ordinary implementation; nonmonotonic:guided has
	// no separate implementation — both erase to the base kind.
	out = xform(t, `
	//omp parallel for schedule(monotonic:dynamic, 4)
	for i := 0; i < n; i++ {
		_ = i
	}`)
	wantContains(t, out, "gomp.Schedule(gomp.Dynamic, 4)")

	out = xform(t, `
	//omp parallel for schedule(nonmonotonic:guided)
	for i := 0; i < n; i++ {
		_ = i
	}`)
	wantContains(t, out, "gomp.Schedule(gomp.Guided, 0)")
}

func TestBadScheduleModifierRejected(t *testing.T) {
	err := xformErr(t, `
	//omp parallel for schedule(perchance:dynamic)
	for i := 0; i < n; i++ {
		_ = i
	}`)
	if !strings.Contains(err.Error(), "unknown modifier") || !strings.Contains(err.Error(), "test.go:") {
		t.Errorf("want positioned unknown-modifier error, got: %v", err)
	}
	err = xformErr(t, `
	//omp parallel for schedule(nonmonotonic:static)
	for i := 0; i < n; i++ {
		_ = i
	}`)
	if !strings.Contains(err.Error(), "nonmonotonic") {
		t.Errorf("want nonmonotonic-kind error, got: %v", err)
	}
}

func TestCollapse3LowersToForNest(t *testing.T) {
	out := xform(t, `
	//omp parallel for collapse(3) schedule(nonmonotonic:dynamic)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 2; k++ {
				_ = i + j + k
			}
		}
	}`)
	wantContains(t, out,
		"__omp_t.ForNest([]gomp.Loop{",
		"i := int(__omp_ix[0])",
		"j := int(__omp_ix[1])",
		"k := int(__omp_ix[2])",
		"gomp.Schedule(gomp.Steal, 0)",
	)
}

func TestCollapse3ImperfectNestRejected(t *testing.T) {
	err := xformErr(t, `
	//omp parallel for collapse(3)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			_ = i + j
		}
	}`)
	if !strings.Contains(err.Error(), "perfectly nested") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestCollapse3DependentBoundsRejected(t *testing.T) {
	err := xformErr(t, `
	//omp parallel for collapse(3)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < j; k++ {
				_ = k
			}
		}
	}`)
	if !strings.Contains(err.Error(), "must not depend") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestDoacrossLoop(t *testing.T) {
	out := xform(t, `
	//omp parallel
	{
		//omp for ordered(2)
		for i := 1; i < n; i++ {
			for j := 1; j < n; j++ {
				//omp ordered depend(sink: i-1, j) depend(sink: i, j-1)
				a[i*n+j] += a[(i-1)*n+j] + a[i*n+j-1]
				//omp ordered depend(source)
			}
		}
	}`)
	wantContains(t, out,
		"__omp_t.ForDoacross([]gomp.Loop{",
		"func(__omp_ix []int64, __omp_doa *gomp.DoacrossCtx) {",
		"i := int(__omp_ix[0])",
		"j := int(__omp_ix[1])",
		"__omp_doa.Wait(int64(i-1), int64(j))",
		"__omp_doa.Wait(int64(i), int64(j-1))",
		"__omp_doa.Post()",
	)
}

func TestDoacrossParallelForCombined(t *testing.T) {
	out := xform(t, `
	//omp parallel for ordered(1) schedule(dynamic,1)
	for i := 0; i < n; i++ {
		//omp ordered depend(sink: i-1)
		a[i] += a[i-1]
		//omp ordered depend(source)
	}`)
	wantContains(t, out,
		"__omp_t.ForDoacross([]gomp.Loop{",
		"__omp_doa.Wait(int64(i - 1))",
		"__omp_doa.Post()",
		"gomp.Schedule(gomp.Dynamic, 1)",
	)
}

func TestDoacrossSinkArityMismatchRejected(t *testing.T) {
	err := xformErr(t, `
	//omp parallel
	{
		//omp for ordered(2)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				//omp ordered depend(sink: i-1)
				_ = i + j
			}
		}
	}`)
	if !strings.Contains(err.Error(), "ordered(2)") {
		t.Errorf("arity diagnostic does not name the declared depth: %v", err)
	}
}

func TestOrderedDependOutsideDoacrossLoopRejected(t *testing.T) {
	xformErr(t, `
	//omp parallel
	{
		//omp for ordered
		for i := 0; i < n; i++ {
			//omp ordered depend(source)
			_ = i
		}
	}`)
}

func TestBlockOrderedInsideDoacrossLoopRejected(t *testing.T) {
	xformErr(t, `
	//omp parallel
	{
		//omp for ordered(1)
		for i := 0; i < n; i++ {
			//omp ordered
			{
				_ = i
			}
		}
	}`)
}

func TestPlainOrderedWithCollapseRejected(t *testing.T) {
	err := xformErr(t, `
	//omp parallel
	{
		//omp for ordered collapse(2)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				_ = i + j
			}
		}
	}`)
	if !strings.Contains(err.Error(), "ordered(2)") {
		t.Errorf("diagnostic should point at the ordered(n) doacross form: %v", err)
	}
}

func TestDoacrossImperfectNestRejected(t *testing.T) {
	xformErr(t, `
	//omp parallel
	{
		//omp for ordered(2)
		for i := 0; i < n; i++ {
			_ = i
			for j := 0; j < n; j++ {
				_ = j
			}
		}
	}`)
}
