package directive

import (
	"fmt"
	"strings"
	"testing"
)

func mustParse(t *testing.T, body string) *Directive {
	t.Helper()
	d, diags := ParseAt(body, Pos{})
	if err := diags.Err(); err != nil {
		t.Fatalf("ParseAt(%q): %v", body, err)
	}
	return d
}

func TestParseConstructs(t *testing.T) {
	cases := map[string]Construct{
		"parallel":          ConstructParallel,
		"parallel for":      ConstructParallelFor,
		"parallel sections": ConstructParallelSections,
		"for":               ConstructFor,
		"sections":          ConstructSections,
		"section":           ConstructSection,
		"single":            ConstructSingle,
		"master":            ConstructMaster,
		"masked":            ConstructMaster,
		"critical":          ConstructCritical,
		"barrier":           ConstructBarrier,
		"atomic":            ConstructAtomic,
		"atomic update":     ConstructAtomic,
		"ordered":           ConstructOrdered,
		"task":              ConstructTask,
		"taskwait":          ConstructTaskwait,
		"taskgroup":         ConstructTaskgroup,
		"taskloop":          ConstructTaskloop,
		"flush":             ConstructFlush,
		"flush(a, b)":       ConstructFlush,
	}
	for body, want := range cases {
		if got := mustParse(t, body).Construct; got != want {
			t.Errorf("ParseAt(%q).Construct = %v, want %v", body, got, want)
		}
	}
}

func TestParsePaperExample(t *testing.T) {
	// The clause set the paper reports support for: shared, private,
	// firstprivate, schedule, reduction on parallel/for.
	d := mustParse(t, "parallel for shared(a,b) private(x) firstprivate(y) schedule(static,4) reduction(+:sum)")
	if d.Construct != ConstructParallelFor {
		t.Fatalf("construct = %v", d.Construct)
	}
	if vs := d.Vars(ClauseShared); len(vs) != 2 || vs[0] != "a" || vs[1] != "b" {
		t.Errorf("shared vars = %v", vs)
	}
	if vs := d.Vars(ClausePrivate); len(vs) != 1 || vs[0] != "x" {
		t.Errorf("private vars = %v", vs)
	}
	if vs := d.Vars(ClauseFirstprivate); len(vs) != 1 || vs[0] != "y" {
		t.Errorf("firstprivate vars = %v", vs)
	}
	if c, ok := d.Schedule(); !ok || c.Kind != SchedStatic || c.Chunk != "4" {
		t.Errorf("schedule clause = %+v", c)
	}
	rs := d.Reductions()
	if len(rs) != 1 || rs[0].Op != "+" || rs[0].Vars[0] != "sum" {
		t.Errorf("reduction clauses = %+v", rs)
	}
}

func TestParseScheduleVariants(t *testing.T) {
	for _, kind := range []string{"static", "dynamic", "guided", "auto", "runtime"} {
		d := mustParse(t, "for schedule("+kind+")")
		if c, ok := d.Schedule(); !ok || c.Kind.String() != kind {
			t.Errorf("schedule(%s) parsed as %+v", kind, c)
		}
	}
	d := mustParse(t, "for schedule(nonmonotonic:dynamic, n*2)")
	c, _ := d.Schedule()
	if c.Kind != SchedDynamic || c.Chunk != "n*2" || c.Modifier != ModifierNonmonotonic {
		t.Errorf("modifier schedule = %+v", c)
	}
}

func TestParseScheduleModifiers(t *testing.T) {
	cases := map[string]ScheduleModifier{
		"for schedule(static,4)":               ModifierNone,
		"for schedule(monotonic:static,4)":     ModifierMonotonic,
		"for schedule(monotonic:dynamic)":      ModifierMonotonic,
		"for schedule(nonmonotonic:dynamic,2)": ModifierNonmonotonic,
		"for schedule(nonmonotonic:guided)":    ModifierNonmonotonic,
	}
	for body, want := range cases {
		d := mustParse(t, body)
		c, ok := d.Schedule()
		if !ok || c.Modifier != want {
			t.Errorf("%q: modifier = %v, want %v", body, c.Modifier, want)
		}
		// The canonical spelling must re-parse to the same clause.
		d2, diags := ParseAt(strings.TrimPrefix(d.String(), "omp "), Pos{})
		if err := diags.Err(); err != nil {
			t.Fatalf("re-parse of %q failed: %v", d.String(), err)
		}
		c2, _ := d2.Schedule()
		if c2.Modifier != c.Modifier || c2.Kind != c.Kind || c2.Chunk != c.Chunk {
			t.Errorf("%q: round trip %+v vs %+v", body, c, c2)
		}
	}
}

func TestParseCollapseDepths(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		d := mustParse(t, fmt.Sprintf("for collapse(%d)", n))
		if got, ok := d.Collapse(); !ok || got != n {
			t.Errorf("collapse(%d) parsed as %d, %v", n, got, ok)
		}
	}
}

func TestBadModifierDiagnosticPosition(t *testing.T) {
	_, diags := ParseAt("for schedule(perchance:dynamic)", Pos{Line: 1, Col: 1})
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v", diags)
	}
	if d := diags[0]; d.Col != 5 || !strings.Contains(d.Msg, "perchance") {
		t.Errorf("diagnostic = %+v, want col 5 naming the modifier", d)
	}
}

func TestParseReductionOps(t *testing.T) {
	for _, op := range []string{"+", "-", "*", "max", "min", "&", "|", "^", "&&", "||"} {
		d := mustParse(t, "for reduction("+op+":acc)")
		if rs := d.Reductions(); len(rs) != 1 || rs[0].Op != op {
			t.Errorf("reduction op %q parsed as %+v", op, rs)
		}
	}
}

func TestParseExpressionsKeepBalancedParens(t *testing.T) {
	d := mustParse(t, "parallel num_threads(f(x, g(y))) if(n > (a+b))")
	if e, ok := d.Expr(ClauseNumThreads); !ok || e != "f(x, g(y))" {
		t.Errorf("num_threads expr = %q", e)
	}
	if e, ok := d.Expr(ClauseIf); !ok || e != "n > (a+b)" {
		t.Errorf("if expr = %q", e)
	}
}

func TestParseCriticalName(t *testing.T) {
	d := mustParse(t, "critical(queue)")
	if name, ok := d.Name(); !ok || name != "queue" {
		t.Errorf("critical name = %q, %v", name, ok)
	}
	d = mustParse(t, "critical")
	if _, ok := d.Name(); ok {
		t.Error("unnamed critical should have no name clause")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"simd",                                       // unsupported construct
		"parallel frobnicate(x)",                     // unknown clause
		"for schedule(chaotic)",                      // unknown schedule kind
		"for schedule(static,)",                      // empty chunk
		"for schedule(static,1,2)",                   // too many args
		"for reduction(+ sum)",                       // missing colon
		"for reduction(%:x)",                         // bad operator
		"for reduction(+:2bad)",                      // bad variable name
		"parallel private(a-b)",                      // bad variable name
		"parallel default(maybe)",                    // bad default
		"parallel num_threads()",                     // empty expr
		"parallel num_threads(4",                     // unbalanced
		"for collapse(0)",                            // non-positive
		"for collapse(three)",                        // non-integer
		"for schedule(perchance:dynamic)",            // unknown modifier
		"for schedule(nonmonotonic:static)",          // modifier needs dynamic/guided
		"for schedule(nonmonotonic:dynamic) ordered", // modifier vs ordered
		"for nowait nowait",                          // repeated unique clause
		"for ordered nowait",                         // mutually exclusive
		"barrier nowait",                             // clause not valid on barrier
		"single schedule(static)",                    // clause not valid on single
		"parallel private(x) firstprivate(x)",        // conflicting classes
		"parallel proc_bind(diagonal)",
	}
	for _, body := range bad {
		if _, diags := ParseAt(body, Pos{}); diags.Err() == nil {
			t.Errorf("ParseAt(%q): expected error", body)
		}
	}
}

func TestDiagnosticKinds(t *testing.T) {
	cases := map[string]DiagKind{
		"simd":                                       DiagUnknownConstruct,
		"parallel frobnicate(x)":                     DiagUnknownClause,
		"for schedule(chaotic)":                      DiagBadClauseArg,
		"parallel num_threads(4":                     DiagSyntax,
		"barrier nowait":                             DiagClauseNotAllowed,
		"for nowait nowait":                          DiagDuplicateClause,
		"for ordered nowait":                         DiagConflictingClauses,
		"parallel private(x) firstprivate(x)":        DiagConflictingClauses,
		"for schedule(perchance:dynamic)":            DiagBadClauseArg,
		"for schedule(nonmonotonic:dynamic) ordered": DiagConflictingClauses,
	}
	for body, want := range cases {
		_, diags := ParseAt(body, Pos{})
		if len(diags) == 0 {
			t.Errorf("ParseAt(%q): no diagnostics", body)
			continue
		}
		found := false
		for _, d := range diags {
			if d.Kind == want {
				found = true
			}
		}
		if !found {
			t.Errorf("ParseAt(%q): no %v diagnostic in %v", body, want, diags)
		}
	}
}

func TestParseAtAggregatesClauseErrors(t *testing.T) {
	// One directive, three independent errors: an unknown clause, a bad
	// schedule kind, and a bad variable name. All three must surface from
	// a single ParseAt call.
	body := "for frobnicate(x) schedule(chaotic) private(a-b)"
	d, diags := ParseAt(body, Pos{})
	if d == nil {
		t.Fatal("directive with recognisable construct returned nil")
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
	for i, want := range []DiagKind{DiagUnknownClause, DiagBadClauseArg, DiagBadClauseArg} {
		if diags[i].Kind != want {
			t.Errorf("diags[%d].Kind = %v, want %v (%s)", i, diags[i].Kind, want, diags[i].Msg)
		}
	}
}

func TestParseAtPositions(t *testing.T) {
	pos := Pos{File: "f.go", Line: 7, Col: 10}
	body := "for frobnicate schedule(chaotic)"
	_, diags := ParseAt(body, pos)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	// "frobnicate" starts at body offset 4, "schedule" at offset 15.
	wantCols := []int{10 + 4, 10 + 15}
	wantSpans := []int{len("frobnicate"), len("schedule")}
	for i, d := range diags {
		if d.File != "f.go" || d.Line != 7 {
			t.Errorf("diags[%d] at %s:%d, want f.go:7", i, d.File, d.Line)
		}
		if d.Col != wantCols[i] || d.Span != wantSpans[i] {
			t.Errorf("diags[%d] col/span = %d/%d, want %d/%d", i, d.Col, d.Span, wantCols[i], wantSpans[i])
		}
		if !strings.HasPrefix(d.Error(), "f.go:7:") || !strings.Contains(d.Error(), ": error: ") {
			t.Errorf("diags[%d].Error() not compiler-style: %q", i, d.Error())
		}
	}
}

func TestDiagnosticListSort(t *testing.T) {
	l := DiagnosticList{
		{File: "b.go", Line: 1, Col: 1},
		{File: "a.go", Line: 9, Col: 2},
		{File: "a.go", Line: 3, Col: 8},
		{File: "a.go", Line: 3, Col: 2},
	}
	l.Sort()
	got := make([]string, len(l))
	for i, d := range l {
		got[i] = d.Position()
	}
	want := []string{"a.go:3:2", "a.go:3:8", "a.go:9:2", "b.go:1:1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order = %v, want %v", got, want)
		}
	}
}

func TestDiagnosticListErr(t *testing.T) {
	var l DiagnosticList
	if l.Err() != nil {
		t.Error("empty list must convert to a nil error")
	}
	l = append(l, &Diagnostic{Msg: "x", Col: 1, Span: 1})
	if l.Err() == nil {
		t.Error("non-empty list must be an error")
	}
	if l.ErrorCount() != 1 {
		t.Errorf("ErrorCount = %d", l.ErrorCount())
	}
}

func TestValidateExplicit(t *testing.T) {
	// Validate is callable on a programmatically built directive.
	d := &Directive{
		Construct: ConstructBarrier,
		Clauses:   []Clause{&FlagClause{Kind: ClauseNowait}},
	}
	diags := d.Validate()
	if len(diags) != 1 || diags[0].Kind != DiagClauseNotAllowed {
		t.Errorf("Validate = %v", diags)
	}
}

func TestRepeatedDataSharingClausesAllowed(t *testing.T) {
	d := mustParse(t, "parallel private(a) private(b) shared(c)")
	ps := d.DataSharing(ClausePrivate)
	if len(ps) != 2 || ps[0].Vars[0] != "a" || ps[1].Vars[0] != "b" {
		t.Errorf("private clauses = %+v", ps)
	}
	if vs := d.Vars(ClausePrivate); len(vs) != 2 || vs[0] != "a" || vs[1] != "b" {
		t.Errorf("flattened private vars = %v", vs)
	}
}

func TestDirectiveStringRoundTrip(t *testing.T) {
	for _, body := range []string{
		"parallel for shared(a,b) schedule(dynamic,8) reduction(+:sum)",
		"for schedule(guided,4) nowait",
		"critical(q)",
		"for collapse(2) ordered",
		"single copyprivate(x)",
		"cancel parallel if(n > 2)",
		"parallel default(none) proc_bind(close)",
	} {
		d := mustParse(t, body)
		d2, diags := ParseAt(strings.TrimPrefix(d.String(), "omp "), Pos{})
		if err := diags.Err(); err != nil {
			t.Fatalf("re-parse of %q -> %q failed: %v", body, d.String(), err)
		}
		if d2.String() != d.String() {
			t.Errorf("string not stable: %q vs %q", d.String(), d2.String())
		}
	}
}

func TestIsDirectiveComment(t *testing.T) {
	cases := []struct {
		in   string
		body string
		ok   bool
	}{
		{"omp parallel", "parallel", true},
		{"omp: parallel for", "parallel for", true},
		{"#omp barrier", "barrier", true},
		{"$omp for", "for", true},
		{"omp", "", true},
		{" omp parallel", "", false}, // prose: sentinel must touch the slashes
		{"omp is mentioned in this sentence", "is mentioned in this sentence", true},
		{"ompx parallel", "", false},
		{"nolint:gocritic", "", false},
		{" just a comment", "", false},
		{"go:generate foo", "", false},
	}
	for _, c := range cases {
		body, ok := IsDirectiveComment(c.in)
		if ok != c.ok || body != c.body {
			t.Errorf("IsDirectiveComment(%q) = %q, %v; want %q, %v", c.in, body, ok, c.body, c.ok)
		}
	}
}

func TestDirectiveBodyOffset(t *testing.T) {
	cases := []struct {
		in    string
		body  string
		start int
	}{
		{"omp parallel", "parallel", 4},
		{"omp   parallel", "parallel", 6},
		{"#omp barrier", "barrier", 5},
		{"omp:\tfor", "for", 5},
	}
	for _, c := range cases {
		body, start, ok := DirectiveBody(c.in)
		if !ok || body != c.body || start != c.start {
			t.Errorf("DirectiveBody(%q) = %q, %d, %v; want %q, %d, true",
				c.in, body, start, ok, c.body, c.start)
		}
		if !strings.HasPrefix(c.in[start:], body) {
			t.Errorf("DirectiveBody(%q): start %d does not point at body", c.in, start)
		}
	}
}

func TestFindAndAll(t *testing.T) {
	d := mustParse(t, "parallel")
	if _, ok := d.Find(ClauseIf); ok {
		t.Error("Find on absent clause returned ok")
	}
	if d.Has(ClauseNowait) {
		t.Error("Has on absent clause returned true")
	}
}

func TestConstructPredicates(t *testing.T) {
	if !ConstructBarrier.IsStandalone() || !ConstructTaskwait.IsStandalone() || !ConstructFlush.IsStandalone() {
		t.Error("standalone predicates wrong")
	}
	if ConstructFor.IsStandalone() {
		t.Error("for is not standalone")
	}
}

func TestParseDependClauses(t *testing.T) {
	d := mustParse(t, "task depend(in: a, b) depend(out: c) depend(inout: m[i][j+1]) priority(p*2) final(n < 8)")
	deps := d.Depends()
	if len(deps) != 3 {
		t.Fatalf("got %d depend clauses", len(deps))
	}
	if deps[0].Mode != DependIn || len(deps[0].Vars) != 2 || deps[0].Vars[0] != "a" || deps[0].Vars[1] != "b" {
		t.Errorf("depend[0] = %v %v", deps[0].Mode, deps[0].Vars)
	}
	if deps[1].Mode != DependOut || deps[1].Vars[0] != "c" {
		t.Errorf("depend[1] = %v %v", deps[1].Mode, deps[1].Vars)
	}
	if deps[2].Mode != DependInOut || deps[2].Vars[0] != "m[i][j+1]" {
		t.Errorf("depend[2] = %v %v", deps[2].Mode, deps[2].Vars)
	}
	if e, ok := d.Expr(ClausePriority); !ok || e != "p*2" {
		t.Errorf("priority = %q, %v", e, ok)
	}
	if e, ok := d.Expr(ClauseFinal); !ok || e != "n < 8" {
		t.Errorf("final = %q, %v", e, ok)
	}
}

func TestParseTaskloopModes(t *testing.T) {
	d := mustParse(t, "taskloop num_tasks(2*nt) nogroup priority(1)")
	if e, ok := d.Expr(ClauseNumTasks); !ok || e != "2*nt" {
		t.Errorf("num_tasks = %q, %v", e, ok)
	}
	if !d.Has(ClauseNogroup) {
		t.Error("nogroup missing")
	}
}

func TestDependErrors(t *testing.T) {
	cases := map[string]DiagKind{
		"task depend(in a)":                  DiagBadClauseArg,       // missing colon
		"task depend(frob: x)":               DiagBadClauseArg,       // bad modifier
		"task depend(in: 1x)":                DiagBadClauseArg,       // bad list item
		"task depend(in: )":                  DiagBadClauseArg,       // empty list
		"task depend(in: a) depend(out: a)":  DiagConflictingClauses, // dup item across clauses
		"task depend(inout: a, a)":           DiagConflictingClauses, // dup item in one clause
		"taskloop grainsize(4) num_tasks(8)": DiagConflictingClauses,
		"parallel depend(in: x)":             DiagClauseNotAllowed,
		"task priority(1) priority(2)":       DiagDuplicateClause,
		"task final()":                       DiagBadClauseArg,
		"for nogroup":                        DiagClauseNotAllowed,
	}
	for body, want := range cases {
		_, diags := ParseAt(body, Pos{File: "t.go", Line: 1, Col: 1})
		found := false
		for _, dg := range diags {
			if dg.Kind == want {
				found = true
			}
			if dg.Line != 1 || dg.Col < 1 || dg.Span < 1 {
				t.Errorf("%q: diagnostic without position: %v", body, dg)
			}
		}
		if !found {
			t.Errorf("ParseAt(%q): no %v diagnostic in %v", body, want, diags)
		}
	}
}

func TestDependItemSyntax(t *testing.T) {
	ok := []string{"x", "_x", "a1", "a[i]", "m[i][j]", "a[f(i, j)]", "a[]"}
	bad := []string{"", "1a", "a[", "a]b", "a[i]x", "&a", "a.b"}
	for _, s := range ok {
		if !isDependItem(s) {
			t.Errorf("isDependItem(%q) = false, want true", s)
		}
	}
	for _, s := range bad {
		if isDependItem(s) {
			t.Errorf("isDependItem(%q) = true, want false", s)
		}
	}
}

func TestDependStringRoundTrip(t *testing.T) {
	for _, body := range []string{
		"task depend(in: a,b) depend(out: c) priority(3)",
		"taskloop grainsize(8) nogroup final(d > 2)",
		"task depend(inout: m[i][j])",
	} {
		d := mustParse(t, body)
		canon := strings.TrimPrefix(d.String(), "omp ")
		d2 := mustParse(t, canon)
		if d2.String() != d.String() {
			t.Errorf("round trip %q -> %q -> %q", body, d.String(), d2.String())
		}
	}
}

func TestParseOrderedClause(t *testing.T) {
	d := mustParse(t, "for ordered")
	if n, ok := d.Ordered(); !ok || n != 0 {
		t.Errorf("plain ordered: Ordered() = (%d,%v), want (0,true)", n, ok)
	}
	d = mustParse(t, "for ordered(2) schedule(static,1)")
	if n, ok := d.Ordered(); !ok || n != 2 {
		t.Errorf("ordered(2): Ordered() = (%d,%v), want (2,true)", n, ok)
	}
	if _, diags := ParseAt("for ordered(0)", Pos{}); diags.Err() == nil {
		t.Error("ordered(0) accepted")
	}
	if _, diags := ParseAt("for ordered(x)", Pos{}); diags.Err() == nil {
		t.Error("ordered(x) accepted")
	}
}

func TestParseDoacrossDependForms(t *testing.T) {
	d := mustParse(t, "ordered depend(sink: i-1, j) depend(sink: i, j-1)")
	deps := d.Depends()
	if len(deps) != 2 {
		t.Fatalf("got %d depend clauses", len(deps))
	}
	for _, dc := range deps {
		if dc.Mode != DependSink || len(dc.Vars) != 2 {
			t.Errorf("sink clause parsed as %v %v", dc.Mode, dc.Vars)
		}
	}
	d = mustParse(t, "ordered depend(source)")
	deps = d.Depends()
	if len(deps) != 1 || deps[0].Mode != DependSource || len(deps[0].Vars) != 0 {
		t.Fatalf("depend(source) parsed as %+v", deps)
	}
	if deps[0].String() != "depend(source)" {
		t.Errorf("depend(source) renders as %q", deps[0].String())
	}
	if !d.IsStandalone() {
		t.Error("ordered depend(source) should be standalone")
	}
	if mustParse(t, "ordered").IsStandalone() {
		t.Error("block-form ordered should not be standalone")
	}
}

func TestDoacrossValidation(t *testing.T) {
	bad := []string{
		"ordered depend(source) depend(sink: i-1)", // post and wait mixed
		"ordered depend(source) depend(source)",    // duplicate source
		"ordered depend(in: x)",                    // task dependence type on ordered
		"task depend(sink: i-1)",                   // doacross type on task
		"task depend(source)",
		"for ordered(2) collapse(3)",                    // mismatched nest depths
		"for ordered(2) schedule(nonmonotonic:dynamic)", // doacross x nonmonotonic
		"for ordered(1) nowait",                         // doacross x nowait
		"ordered depend(sink: )",                        // empty vector component
	}
	for _, body := range bad {
		if _, diags := ParseAt(body, Pos{}); diags.Err() == nil {
			t.Errorf("ParseAt(%q) accepted", body)
		}
	}
	good := []string{
		"for ordered(2) collapse(2)",
		"for ordered(2) schedule(monotonic:dynamic,1)",
		"parallel for ordered(1)",
		"ordered depend(sink: i-1, j+2) depend(sink: i-1, j)", // components may repeat across sinks
	}
	for _, body := range good {
		if _, diags := ParseAt(body, Pos{}); diags.Err() != nil {
			t.Errorf("ParseAt(%q): %v", body, diags)
		}
	}
}

// TestCancelTypeNamesConstruct: a bad construct type is reported under the
// construct that was written.
func TestCancelTypeNamesConstruct(t *testing.T) {
	for body, want := range map[string]string{
		"cancel bogus":             `cancel: unknown construct type "bogus"`,
		"cancellation point bogus": `cancellation point: unknown construct type "bogus"`,
	} {
		_, diags := ParseAt(body, Pos{})
		if len(diags) != 1 || diags[0].Msg != want {
			t.Errorf("ParseAt(%q) = %v, want the one diagnostic %q", body, diags, want)
		}
	}
}

// TestMissingWordBeforeClause: a clause keyword read in place of a missing
// construct word is reported once and then parsed as the clause it is; any
// further diagnostic is the clause's own on that construct.
func TestMissingWordBeforeClause(t *testing.T) {
	for body, want := range map[string]int{
		"target enter map(to: a)": 1,
		"target teams map(to: a)": 1,
		"cancel map(to: a)":       2, // and map is not valid on cancel
	} {
		d, diags := ParseAt(body, Pos{})
		if len(diags) != want {
			t.Errorf("ParseAt(%q): %d diagnostics %v, want %d", body, len(diags), diags, want)
		}
		if d == nil || len(d.Maps()) != 1 {
			t.Errorf("ParseAt(%q): map(to: a) was not parsed as a clause", body)
		}
	}
}
