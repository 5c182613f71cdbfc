package sema

import (
	"strings"
	"testing"

	"repro/internal/directive"
)

// check runs the sema pipeline over a single-file unit and returns the
// findings.
func check(t *testing.T, src string) (*Result, directive.DiagnosticList) {
	t.Helper()
	res := Check(map[string][]byte{"unit.go": []byte(src)})
	return res, res.Diagnose()
}

// wantFinding asserts exactly one DiagSema diagnostic whose message
// contains every fragment, positioned with real file coordinates.
func wantFinding(t *testing.T, diags directive.DiagnosticList, fragments ...string) *directive.Diagnostic {
	t.Helper()
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Kind != directive.DiagSema {
		t.Fatalf("finding kind = %v, want sema: %v", d.Kind, d)
	}
	if d.File != "unit.go" || d.Line <= 0 || d.Col <= 0 || d.Span < 1 {
		t.Fatalf("finding not positioned: %+v", d)
	}
	for _, f := range fragments {
		if !strings.Contains(d.Msg, f) {
			t.Fatalf("finding %q does not contain %q", d.Msg, f)
		}
	}
	return d
}

func TestModeParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"off", Off}, {"warn", Warn}, {"strict", Strict}} {
		m, err := ParseMode(tc.in)
		if err != nil || m != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, m, err)
		}
		if m.String() != tc.in {
			t.Fatalf("Mode(%v).String() = %q, want %q", m, m.String(), tc.in)
		}
	}
	if _, err := ParseMode("loose"); err == nil {
		t.Fatal("ParseMode accepted an unknown mode")
	}
}

func TestStringReductionRejected(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) int {
	s := ""
	//omp parallel for reduction(+:s)
	for j := 0; j < n; j++ {
		s += "x"
	}
	return len(s)
}
`)
	d := wantFinding(t, diags, `reduction(+)`, `"s"`, "string", "numeric")
	if d.Line != 5 {
		t.Fatalf("finding line = %d, want 5 (the directive line)", d.Line)
	}
}

func TestBitwiseOnFloatRejected(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) int {
	acc := 0.0
	//omp parallel for reduction(&:acc)
	for j := 0; j < n; j++ {
		acc += float64(j)
	}
	return int(acc)
}
`)
	wantFinding(t, diags, `reduction(&)`, "float64", "integer")
}

func TestBooleanOpOnIntRejected(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) int {
	x := 0
	//omp parallel for reduction(&&:x)
	for j := 0; j < n; j++ {
		x++
	}
	return x
}
`)
	wantFinding(t, diags, `reduction(&&)`, "boolean")
}

func TestMaxOnStringRejected(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) string {
	s := "a"
	//omp parallel for reduction(max:s)
	for j := 0; j < n; j++ {
		s = "b"
	}
	return s
}
`)
	wantFinding(t, diags, "reduction(max)", "string", "real numeric")
}

func TestNonBasicReductionRejected(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) int {
	xs := make([]int, 0, n)
	//omp parallel for reduction(+:xs)
	for j := 0; j < n; j++ {
		xs = append(xs, j)
	}
	return len(xs)
}
`)
	wantFinding(t, diags, "cannot be a reduction operand")
}

func TestIntReductionAccepted(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) int {
	sum := 0
	//omp parallel for reduction(+:sum)
	for j := 0; j < n; j++ {
		sum += j
	}
	return sum
}
`)
	if len(diags) != 0 {
		t.Fatalf("clean reduction produced findings: %v", diags)
	}
}

func TestPrivateOnFunctionRejected(t *testing.T) {
	_, diags := check(t, `package p

func helper() {}

func f(n int) int {
	//omp parallel private(helper)
	{
		_ = n
	}
	return n
}
`)
	wantFinding(t, diags, "private clause", `"helper"`, "func, not a variable")
}

func TestReductionOnConstRejected(t *testing.T) {
	_, diags := check(t, `package p

const limit = 10

func f(n int) int {
	sum := 0
	_ = sum
	//omp parallel for reduction(+:limit)
	for j := 0; j < n; j++ {
		sum += j
	}
	return sum
}
`)
	wantFinding(t, diags, "reduction clause", `"limit"`, "const, not a variable")
}

func TestMapOfMapRejected(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) int {
	m := map[int]int{1: 1}
	//omp target map(tofrom: m)
	{
		m[2] = n
	}
	return len(m)
}
`)
	wantFinding(t, diags, "map clause", "map[int]int", "not mappable")
}

func TestMapOnChannelRejected(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) int {
	ch := make(chan int, n)
	//omp target map(to: ch)
	{
		_ = ch
	}
	return n
}
`)
	wantFinding(t, diags, "channel type", "not mappable")
}

func TestMapOnSliceAccepted(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) int {
	xs := make([]float64, n)
	//omp target map(tofrom: xs)
	{
		xs[0] = 1
	}
	return len(xs)
}
`)
	if len(diags) != 0 {
		t.Fatalf("slice map produced findings: %v", diags)
	}
}

func TestUndeclaredNameRejectedOnlyInCleanUnits(t *testing.T) {
	// Unit type-checks with zero soft errors: undeclared is provable.
	res, diags := check(t, `package p

func f(n int) int {
	//omp parallel firstprivate(nope)
	{
		_ = n
	}
	return n
}
`)
	if res.SoftErrors != 0 {
		t.Fatalf("unexpected soft errors: %d", res.SoftErrors)
	}
	wantFinding(t, diags, "undeclared name", `"nope"`)

	// Same directive in a unit with a failed import: the name could live
	// behind it, so sema must stay silent.
	res2, diags2 := check(t, `package p

import "nosuch/dependency"

func f(n int) int {
	_ = dependency.Thing
	//omp parallel firstprivate(nope)
	{
		_ = n
	}
	return n
}
`)
	if res2.SoftErrors == 0 {
		t.Fatal("expected soft errors from the failed import")
	}
	if len(diags2) != 0 {
		t.Fatalf("undeclared-name reported despite soft errors: %v", diags2)
	}
}

func TestLoopVariableResolvesInClause(t *testing.T) {
	// lastprivate(j) names the loop variable declared *after* the
	// directive comment; resolution must fall back to the statement
	// interior.
	_, diags := check(t, `package p

func f(n int) int {
	//omp parallel
	{
		//omp for lastprivate(j)
		for j := 0; j < n; j++ {
			_ = j
		}
	}
	return n
}
`)
	if len(diags) != 0 {
		t.Fatalf("loop-variable clause produced findings: %v", diags)
	}
}

func TestDependListChecked(t *testing.T) {
	_, diags := check(t, `package p

func helper() {}

func f(n int) int {
	x := 0
	//omp parallel
	{
		//omp task depend(in: helper)
		{
			x++
		}
	}
	return x + n
}
`)
	wantFinding(t, diags, "depend clause", `"helper"`, "func")
}

func TestDependIndexedItemUsesBase(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) int {
	a := make([]int, n+1)
	//omp parallel
	{
		//omp task depend(inout: a[0])
		{
			a[0]++
		}
	}
	return a[0]
}
`)
	if len(diags) != 0 {
		t.Fatalf("indexed depend item produced findings: %v", diags)
	}
}

func TestAtomicShapeAndType(t *testing.T) {
	_, diags := check(t, `package p

func f(n int) string {
	s := ""
	//omp parallel
	{
		//omp atomic
		s += "x"
	}
	return s + "y"
}
`)
	wantFinding(t, diags, "atomic update target", "string", "numeric")

	_, diags = check(t, `package p

func f(n int) int {
	x := 0
	//omp parallel
	{
		//omp atomic
		{
			x++
			x++
		}
	}
	return x
}
`)
	wantFinding(t, diags, "exactly one statement")

	_, diags = check(t, `package p

func f(n int) int {
	x := 0
	//omp parallel
	{
		//omp atomic
		x += n
	}
	return x
}
`)
	if len(diags) != 0 {
		t.Fatalf("clean atomic produced findings: %v", diags)
	}
}

func TestGenericFunctionsStaySilent(t *testing.T) {
	// Type parameters are never provable: no findings, no crash.
	_, diags := check(t, `package p

func sum[T int | float64](xs []T, n int) T {
	var acc T
	//omp parallel for reduction(+:acc)
	for j := 0; j < n; j++ {
		acc += xs[j%len(xs)]
	}
	return acc
}
`)
	if len(diags) != 0 {
		t.Fatalf("generic reduction produced findings: %v", diags)
	}
}

func TestSymbolsFilled(t *testing.T) {
	res, diags := check(t, `package p

func f(n int) int {
	sum := 0
	//omp parallel for reduction(+:sum)
	for j := 0; j < n; j++ {
		sum += j
	}
	return sum
}
`)
	if len(diags) != 0 {
		t.Fatalf("unexpected findings: %v", diags)
	}
	if len(res.Directives) != 1 {
		t.Fatalf("checked %d directives, want 1", len(res.Directives))
	}
	red := res.Directives[0].Dir.Reductions()
	if len(red) != 1 || len(red[0].Syms) != 1 {
		t.Fatalf("reduction Syms not filled: %+v", red)
	}
	sym := red[0].Syms[0]
	if sym.Name != "sum" || sym.Kind != "var" || sym.Type != "int" {
		t.Fatalf("sym = %+v, want sum var int", sym)
	}
}

func TestPackageUnitResolvesCrossFileNames(t *testing.T) {
	// The clause names a variable declared in a sibling file: a package
	// unit resolves (and rejects) it; a single-file unit cannot prove
	// anything (the name is undeclared but the sibling carries it).
	lib := `package p

var registry = map[string]int{}
`
	use := `package p

func f(n int) int {
	//omp target map(tofrom: registry)
	{
		registry["k"] = n
	}
	return len(registry)
}
`
	res := Check(map[string][]byte{"lib.go": []byte(lib), "use.go": []byte(use)})
	if res.SoftErrors != 0 {
		t.Fatalf("package unit has soft errors: %d", res.SoftErrors)
	}
	diags := res.Diagnose()
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "not mappable") {
		t.Fatalf("package unit findings = %v, want the map-clause rejection", diags)
	}
	if diags[0].File != "use.go" {
		t.Fatalf("finding file = %q, want use.go", diags[0].File)
	}
}

func TestUnparseableFilesDegrade(t *testing.T) {
	res := Check(map[string][]byte{
		"bad.go": []byte("pkg broken ]["),
		"ok.go": []byte(`package p

func f(n int) int {
	sum := 0
	//omp parallel for reduction(+:sum)
	for j := 0; j < n; j++ {
		sum += j
	}
	return sum
}
`),
	})
	if res.SoftErrors == 0 {
		t.Fatal("expected a soft error for the unparseable file")
	}
	if diags := res.Diagnose(); len(diags) != 0 {
		t.Fatalf("degraded unit still reported: %v", diags)
	}
}

func TestDemoteCopies(t *testing.T) {
	orig := directive.DiagnosticList{{
		File: "a.go", Line: 1, Col: 1, Span: 1,
		Kind: directive.DiagSema, Severity: directive.SevError, Msg: "m",
	}}
	w := Demote(orig)
	if len(w) != 1 || w[0].Severity != directive.SevWarning {
		t.Fatalf("Demote = %v", w)
	}
	if orig[0].Severity != directive.SevError {
		t.Fatal("Demote mutated the original list")
	}
	if w.ErrorCount() != 0 {
		t.Fatal("demoted list still counts errors")
	}
}
