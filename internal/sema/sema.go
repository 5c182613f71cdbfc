// Package sema is the semantic-analysis stage of the gompcc front end: it
// type-checks a transform unit (one file, or one package directory in
// module mode) with the standard library's go/types and validates directive
// clauses against the resulting types.Info before any code is generated.
//
// The paper's preprocessor runs before type checking and accepts any
// syntactically well-formed pragma; an ill-typed clause — reduction(+: s)
// on a string, a map clause on a Go map — only explodes later when the
// *generated* code is compiled, with positions pointing at emitted code
// nobody wrote. This package moves those failures to transform time, with
// file:line:col positions on the user's directive.
//
// Two design rules keep the pass safe to run everywhere:
//
//   - Never a hard failure. Type checking uses a soft-error collector:
//     unresolvable imports (importer.Default reads compiled export data,
//     which the Go toolchain no longer ships for the stdlib, so imports
//     routinely fail outside GOPATH-era setups), unparseable siblings, and
//     plain type errors in user code are counted, not fatal. The checker
//     still binds and types everything it can — locals in particular.
//   - Zero false positives. A diagnostic is only reported for *provable*
//     violations: an operand that resolved to an object of the wrong kind,
//     or to a variable whose fully-known type cannot admit the operator.
//     Anything unresolved or of unknown/invalid/generic type is silently
//     accepted, and "undeclared name" is only reported when the unit
//     type-checked with zero soft errors (otherwise the name may live in a
//     package the importer could not load).
package sema

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/directive"
)

// Version tags the semantic-analysis rules. It is mixed into gompcc's
// incremental-cache keys, so bumping it (new checks, changed messages)
// invalidates every warm entry wholesale.
const Version = "1"

// Mode selects how sema findings are treated. The zero value is Off so
// existing transform.Options users are unaffected.
type Mode int

const (
	// Off skips the sema stage entirely.
	Off Mode = iota
	// Warn runs the checks and reports findings as warnings; lowering
	// proceeds. This exists as the migration path: a module that relied on
	// the old purely-syntactic pipeline may contain directives sema now
	// rejects, and warn mode surfaces them without breaking the build.
	Warn
	// Strict runs the checks and treats findings as errors that block
	// lowering, like any other directive diagnostic.
	Strict
)

// String returns the flag spelling.
func (m Mode) String() string {
	switch m {
	case Warn:
		return "warn"
	case Strict:
		return "strict"
	default:
		return "off"
	}
}

// ParseMode parses a -sema flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "warn":
		return Warn, nil
	case "strict":
		return Strict, nil
	default:
		return Off, fmt.Errorf("invalid sema mode %q (want strict, warn or off)", s)
	}
}

// Checked is one directive the sema pass validated, with its clause Syms
// filled in; Stages records these for -dump-stages.
type Checked struct {
	Dir *directive.Directive
	Pos token.Position
}

// Result is a type-checked unit.
type Result struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// SoftErrors counts tolerated failures: parse errors in sibling files,
	// imports the importer could not load, type errors in user code. A
	// non-zero count disables the undeclared-name check (the name may be
	// in a package we could not see into) but not the provable checks.
	SoftErrors int
	// Directives lists every cleanly parsed directive in the unit after
	// Diagnose ran, in source order, with clause symbols resolved.
	Directives []Checked
}

// Check parses and type-checks one unit: a map from file name to source.
// It never fails: files that do not parse are dropped from the unit (and
// counted as soft errors), and type-check errors are collected softly. The
// returned Result always has a usable Fset; Pkg may be nil only if nothing
// parsed.
func Check(unit map[string][]byte) (res *Result) {
	res = &Result{Fset: token.NewFileSet()}
	// go/types is not supposed to panic, but a panic here must degrade to
	// "no type information", never take down a never-panic pipeline.
	defer func() {
		if recover() != nil {
			res.Pkg, res.Info = nil, nil
			res.SoftErrors++
		}
	}()

	names := make([]string, 0, len(unit))
	for name := range unit {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(res.Fset, name, unit[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil || f == nil {
			res.SoftErrors++
			continue
		}
		res.Files = append(res.Files, f)
	}
	if len(res.Files) == 0 {
		return res
	}

	conf := types.Config{
		Importer:                 importer.Default(),
		Error:                    func(error) { res.SoftErrors++ },
		DisableUnusedImportCheck: true,
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, _ := conf.Check(res.Files[0].Name.Name, res.Fset, res.Files, info)
	res.Pkg, res.Info = pkg, info
	return res
}

// lookup resolves name lexically at pos via the package's scope tree.
func (r *Result) lookup(name string, pos token.Pos) types.Object {
	if r.Pkg == nil {
		return nil
	}
	inner := r.Pkg.Scope().Innermost(pos)
	if inner == nil {
		inner = r.Pkg.Scope()
	}
	_, obj := inner.LookupParent(name, pos)
	return obj
}

// Diagnose re-scans the unit's directive comments, validates every cleanly
// parsed directive against the type information, fills clause Syms, and
// returns the findings as error-severity DiagSema diagnostics (callers
// demote to warnings in warn mode). Directives with parse/validate errors
// are skipped — the transformer owns those diagnostics.
func (r *Result) Diagnose() (diags directive.DiagnosticList) {
	if r == nil {
		return nil
	}
	defer func() {
		if recover() != nil {
			diags = nil // degrade silently; never panic, never half-report
		}
	}()
	for _, f := range r.Files {
		r.diagnoseFile(f, &diags)
	}
	diags.Sort()
	return diags
}

func (r *Result) diagnoseFile(f *ast.File, diags *directive.DiagnosticList) {
	for _, s := range directive.Sites(r.Fset, f) {
		if s.Dir == nil || len(s.Diags) > 0 {
			continue
		}
		r.checkDirective(s.Dir, s.BodyPos, len(s.Body), s.Comment.Pos(), s.Stmt, diags)
		r.Directives = append(r.Directives, Checked{Dir: s.Dir, Pos: s.Pos})
	}
}

// interiorPos picks a resolution position just inside a statement's block,
// before any of the block's own declarations: loop variables and enclosing
// scopes are visible there, later shadowing declarations are not.
func interiorPos(stmt ast.Stmt) token.Pos {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return s.Lbrace + 1
	case *ast.ForStmt:
		return s.Body.Lbrace + 1
	case *ast.RangeStmt:
		return s.Body.Lbrace + 1
	default:
		return stmt.Pos()
	}
}

// checkDirective validates one directive's clauses.
func (r *Result) checkDirective(d *directive.Directive, dpos directive.Pos, dlen int, cpos token.Pos, stmt ast.Stmt, diags *directive.DiagnosticList) {
	fallback := token.NoPos
	if stmt != nil {
		fallback = interiorPos(stmt)
	}
	resolve := func(name string) types.Object {
		if obj := r.lookup(name, cpos); obj != nil {
			return obj
		}
		if fallback.IsValid() {
			return r.lookup(name, fallback)
		}
		return nil
	}

	for _, c := range d.Clauses {
		switch cl := c.(type) {
		case *directive.DataSharingClause:
			cl.Syms = r.checkVarList(cl.Vars, resolve, cl, dpos, cl.Kind.String(), nil, diags)
		case *directive.ReductionClause:
			cl.Syms = r.checkVarList(cl.Vars, resolve, cl, dpos, "reduction",
				func(name string, v *types.Var) *string { return reductionViolation(cl.Op, name, v) }, diags)
		case *directive.MapClause:
			cl.Syms = r.checkVarList(cl.Vars, resolve, cl, dpos, "map", mappableViolation, diags)
		case *directive.MotionClause:
			cl.Syms = r.checkVarList(cl.Vars, resolve, cl, dpos, cl.Kind.String(), mappableViolation, diags)
		case *directive.DependClause:
			if cl.Mode == directive.DependSink || cl.Mode == directive.DependSource {
				continue // sink vectors are iteration expressions, not vars
			}
			names := make([]string, len(cl.Vars))
			for i, v := range cl.Vars {
				names[i] = dependBase(v)
			}
			cl.Syms = r.checkVarList(names, resolve, cl, dpos, "depend", nil, diags)
		}
	}

	if d.Construct == directive.ConstructAtomic && stmt != nil {
		r.checkAtomic(dpos, dlen, stmt, diags)
	}
}

// dependBase strips an index suffix from a depend item ("a[i]" -> "a").
// Items that are not plain (possibly indexed) identifiers return "" and are
// skipped.
func dependBase(v string) string {
	if i := strings.IndexByte(v, '['); i >= 0 {
		v = v[:i]
	}
	if strings.ContainsAny(v, ".()*& ") {
		return ""
	}
	return v
}

// checkVarList resolves each name of a clause's variable list, reports the
// provable violations, and returns the symbol resolutions. typeCheck, when
// non-nil, is invoked for names that resolved to variables of fully known
// type and returns a message when the type cannot satisfy the clause.
func (r *Result) checkVarList(names []string, resolve func(string) types.Object, cl directive.Clause,
	dpos directive.Pos, label string, typeCheck func(string, *types.Var) *string, diags *directive.DiagnosticList) []directive.Symbol {

	syms := make([]directive.Symbol, len(names))
	for i, name := range names {
		syms[i] = directive.Symbol{Name: name, Kind: "unresolved"}
		if name == "" {
			continue
		}
		obj := resolve(name)
		if obj == nil {
			// Only provable when the whole unit checked cleanly: with any
			// soft error the name could live behind a failed import or an
			// unparseable sibling file.
			if r.SoftErrors == 0 {
				*diags = append(*diags, r.clauseDiag(cl, dpos, "undeclared name %q in %s clause", name, label))
			}
			continue
		}
		syms[i] = symbolFor(name, obj)
		v, ok := obj.(*types.Var)
		if !ok {
			*diags = append(*diags, r.clauseDiag(cl, dpos,
				"%s clause: %q is a %s, not a variable", label, name, syms[i].Kind))
			continue
		}
		if typeCheck == nil || !typeKnown(v.Type()) {
			continue
		}
		if msg := typeCheck(name, v); msg != nil {
			*diags = append(*diags, r.clauseDiag(cl, dpos, "%s", *msg))
		}
	}
	return syms
}

// clauseDiag builds a DiagSema diagnostic positioned on the clause's span
// within the directive body.
func (r *Result) clauseDiag(cl directive.Clause, dpos directive.Pos, format string, args ...any) *directive.Diagnostic {
	start, length := cl.Span()
	file, line, col := absolute(dpos, start)
	return &directive.Diagnostic{
		File: file, Line: line, Col: col, Span: max(length, 1),
		Kind: directive.DiagSema, Severity: directive.SevError,
		Msg: fmt.Sprintf(format, args...),
	}
}

// absolute converts a body-relative byte offset to file coordinates
// (directive bodies are single-line, so only the column moves).
func absolute(p directive.Pos, off int) (string, int, int) {
	if p.Line > 0 {
		return p.File, p.Line, p.Col + off
	}
	return "", 0, off + 1
}

// symbolFor classifies a resolved object for Syms and messages.
func symbolFor(name string, obj types.Object) directive.Symbol {
	s := directive.Symbol{Name: name}
	switch obj.(type) {
	case *types.Var:
		s.Kind = "var"
	case *types.Func:
		s.Kind = "func"
	case *types.Const:
		s.Kind = "const"
	case *types.TypeName:
		s.Kind = "type"
	case *types.PkgName:
		s.Kind = "package"
	case *types.Builtin:
		s.Kind = "builtin"
	case *types.Label:
		s.Kind = "label"
	default:
		s.Kind = "unresolved"
	}
	if t := obj.Type(); typeKnown(t) {
		s.Type = t.String()
	}
	return s
}

// typeKnown reports whether a type is concrete enough to judge: not nil,
// not (containing) Invalid, not a type parameter.
func typeKnown(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Invalid {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	if _, ok := t.Underlying().(*types.TypeParam); ok {
		return false
	}
	return true
}

// reductionViolation applies the operator/operand typing rules: numeric for
// + - * (max/min additionally exclude complex), integer for & | ^, boolean
// for && ||. Operands whose underlying type is not basic (slices, maps,
// structs, pointers, ...) can never be reduced.
func reductionViolation(op, name string, v *types.Var) *string {
	t := v.Type()
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return msgf("reduction(%s): %q has type %s, which cannot be a reduction operand", op, name, t)
	}
	info := b.Info()
	switch op {
	case "+", "-", "*":
		if info&types.IsNumeric == 0 {
			return msgf("reduction(%s): %q has type %s; operator %s requires a numeric type", op, name, t, op)
		}
	case "max", "min":
		if info&types.IsNumeric == 0 || info&types.IsComplex != 0 {
			return msgf("reduction(%s): %q has type %s; %s requires a real numeric type", op, name, t, op)
		}
	case "&", "|", "^":
		if info&types.IsInteger == 0 {
			return msgf("reduction(%s): %q has type %s; operator %s requires an integer type", op, name, t, op)
		}
	case "&&", "||":
		if info&types.IsBoolean == 0 {
			return msgf("reduction(%s): %q has type %s; operator %s requires a boolean type", op, name, t, op)
		}
	}
	return nil
}

// mappableViolation rejects variable kinds that provably cannot cross a
// device boundary: Go maps, channels and function values have no stable
// storage identity the device layer could transfer. Slices, pointers,
// basics, arrays and structs pass (the runtime validates the rest).
func mappableViolation(name string, v *types.Var) *string {
	switch v.Type().Underlying().(type) {
	case *types.Map:
		return msgf("map clause: %q has map type %s, which is not mappable (copy the data into a slice)", name, v.Type())
	case *types.Chan:
		return msgf("map clause: %q has channel type %s, which is not mappable", name, v.Type())
	case *types.Signature:
		return msgf("map clause: %q has function type %s, which is not mappable", name, v.Type())
	}
	return nil
}

func msgf(format string, args ...any) *string {
	s := fmt.Sprintf(format, args...)
	return &s
}

// checkAtomic validates the atomic construct's associated statement: it
// must be a single assignment or inc/dec (possibly wrapped in a one-
// statement block), and for arithmetic update forms the target's type must
// admit the operator. Only provable violations are reported.
func (r *Result) checkAtomic(dpos directive.Pos, dlen int, stmt ast.Stmt, diags *directive.DiagnosticList) {
	diag := func(format string, args ...any) {
		file, line, col := absolute(dpos, 0)
		*diags = append(*diags, &directive.Diagnostic{
			File: file, Line: line, Col: col, Span: max(dlen, 1),
			Kind: directive.DiagSema, Severity: directive.SevError,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	if b, ok := stmt.(*ast.BlockStmt); ok {
		if len(b.List) != 1 {
			diag("atomic region must contain exactly one statement, not %d", len(b.List))
			return
		}
		stmt = b.List[0]
	}
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		r.checkAtomicTarget(s.X, "numeric", diag)
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			diag("atomic statement must update a single location")
			return
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			r.checkAtomicTarget(s.Lhs[0], "numeric", diag)
		case token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
			r.checkAtomicTarget(s.Lhs[0], "integer", diag)
		}
	default:
		diag("atomic must be followed by an assignment or inc/dec statement")
	}
}

// checkAtomicTarget reports an update-form target whose known basic type
// cannot admit the operator class.
func (r *Result) checkAtomicTarget(lhs ast.Expr, want string, diag func(string, ...any)) {
	if r.Info == nil {
		return
	}
	t := r.Info.TypeOf(lhs)
	if !typeKnown(t) {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		diag("atomic update target has type %s, which is not a numeric scalar", t)
		return
	}
	switch want {
	case "numeric":
		if b.Info()&types.IsNumeric == 0 {
			diag("atomic update target has type %s; the operator requires a numeric type", t)
		}
	case "integer":
		if b.Info()&types.IsInteger == 0 {
			diag("atomic update target has type %s; the operator requires an integer type", t)
		}
	}
}

// Demote copies a diagnostic list at warning severity, for warn mode. The
// copy keeps cached lists (shared, canonical error severity) immutable.
func Demote(l directive.DiagnosticList) directive.DiagnosticList {
	if len(l) == 0 {
		return nil
	}
	out := make(directive.DiagnosticList, len(l))
	for i, d := range l {
		c := *d
		c.Severity = directive.SevWarning
		out[i] = &c
	}
	return out
}
