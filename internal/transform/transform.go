// Package transform is the preprocessing pass of the compiler front end: it
// rewrites Go source containing OpenMP directive comments into plain Go that
// calls the gomp runtime — the Go analog of the paper's Zig compiler
// modification.
//
// The paper's pipeline (its Figure 1) intercepts pragmas during early
// compilation, extracts the annotated blocks into functions, and passes
// pointers to those functions and to captured variables to the OpenMP
// runtime. This package does precisely that with Go closures playing the
// outlined functions: annotated statements become function literals handed
// to gomp.Parallel / Thread.ForLoop / etc., and variable capture implements
// the data-sharing clauses:
//
//   - shared: ordinary closure capture (by reference),
//   - private: a shadowing declaration `v := gomp.Zero(v)` inside the region,
//   - firstprivate: a shadowing copy `v := v`,
//   - reduction: a pointer to the original is taken, the name is shadowed by
//     a private accumulator initialised to the operator identity, and the
//     partials are combined through a critical section at region end — the
//     classic compiler lowering.
//
// Like the paper's preprocessor, the pass runs before type checking and
// therefore has no type information ("the downside is that it does limit
// what type information is available during preprocessing"); the same
// remedy is used too: generic helpers (gomp.Zero, gomp.One, ...) recover
// typed identities from the variables themselves ("this limitation was
// overcome by leveraging generic programming features").
//
// Diagnostics are aggregated: File inspects every directive site before
// rewriting anything, so a file with several bad directives reports all of
// them — as a position-sorted directive.DiagnosticList — in one pass,
// instead of stopping at the first.
package transform

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/scanner"
	"go/token"
	"slices"
	"strings"

	"repro/internal/directive"
	"repro/internal/sema"
)

// Options configures the transformer.
type Options struct {
	// Package is the name the generated code uses for the runtime facade.
	Package string
	// ImportPath is the facade's import path.
	ImportPath string
	// Sema selects the semantic-analysis stage: Off (zero value) skips it,
	// Strict makes sema findings block lowering like any other diagnostic,
	// Warn reports them as warnings (via FileChecked) and lowers anyway.
	// The unit is the single file; whole-package units are modpipe's job.
	Sema sema.Mode
}

// DefaultOptions returns the options used by gompcc.
func DefaultOptions() Options {
	return Options{Package: "gomp", ImportPath: "repro"}
}

// site is one directive occurrence bound to its source location.
type site struct {
	dir          *directive.Directive
	commentStart int // byte offset of the comment
	commentEnd   int
	stmt         ast.Stmt // associated statement (nil for standalone)
	stmtStart    int
	stmtEnd      int
	pos          token.Position // position of the comment
	dpos         directive.Pos  // position of the directive body inside the comment
	dlen         int            // body length in bytes, for diagnostic spans
	// invalid marks a site whose directive already has parse/validate
	// diagnostics. Such sites are never lowered, but they stay in the
	// list so enclosure computations (threadVarInScope, sectionGroups)
	// still see them and do not emit false cascade errors for correctly
	// nested inner directives.
	invalid bool
	// dropped marks a section marker that a lowering did not carry into
	// its output: it is gone from the rewritten source, so an enclosing
	// sections construct must not split on it.
	dropped bool
}

// diag builds an error-severity diagnostic covering the site's directive
// body.
func (s *site) diag(kind directive.DiagKind, format string, args ...any) *directive.Diagnostic {
	return &directive.Diagnostic{
		File: s.dpos.File, Line: s.dpos.Line, Col: s.dpos.Col,
		Span: max(s.dlen, 1), Kind: kind, Severity: directive.SevError,
		Msg: fmt.Sprintf(format, args...),
	}
}

// File preprocesses one source file, returning the transformed content. A
// file in which nothing was lowered is returned byte for byte (the input
// slice itself); a rewritten file is gofmt'd whole. When any directive is
// invalid, the returned error is a directive.DiagnosticList carrying every
// problem in the file, sorted by source position.
func File(filename string, src []byte, opts Options) ([]byte, error) {
	out, _, err := run(filename, src, opts, nil)
	return out, err
}

// FileChecked is File plus the sema stage's advisory output: in warn mode
// the findings come back as warning-severity diagnostics alongside the
// transformed source (in strict mode they are part of the error; with sema
// off the list is always empty).
func FileChecked(filename string, src []byte, opts Options) ([]byte, directive.DiagnosticList, error) {
	out, warns, err := run(filename, src, opts, nil)
	return out, warns, err
}

// run is the driver: collect diagnostics for every directive site (scan →
// parse → sema → dry-run lowering), then (only if the file is clean) lower
// every site in one pass against the same parse, last comment first. An
// inner site is thus lowered before the outer constructs that enclose it,
// and the outer lowering reads the inner one's replacement through the edit
// list (see gen.span). st, when non-nil, records the pipeline artifacts for
// -dump-stages.
func run(filename string, src []byte, opts Options, st *Stages) ([]byte, directive.DiagnosticList, error) {
	if opts.Package == "" {
		def := DefaultOptions()
		opts.Package, opts.ImportPath = def.Package, def.ImportPath
	}

	// Pre-flight: parse/validate every directive and attempt every
	// lowering against the original source, so one bad site does not hide
	// the others and every error carries its own position.
	sites, fset, diags := scan(filename, src)

	// Sema stage: type-check the unit and validate clauses against the
	// types. The result also feeds the lowering itself (collapse
	// bound-independence consults object identity instead of the name
	// heuristic alone), so it is computed before the dry run.
	var sem *sema.Result
	var warns directive.DiagnosticList
	if opts.Sema != sema.Off {
		sem = sema.Check(map[string][]byte{filename: src})
		findings := sem.Diagnose()
		if opts.Sema == sema.Strict {
			diags = append(diags, findings...)
		} else {
			warns = sema.Demote(findings)
			warns.Sort()
		}
		if st != nil {
			rec := &SemaRecord{Mode: opts.Sema, SoftErrors: sem.SoftErrors, Directives: sem.Directives}
			if opts.Sema == sema.Strict {
				rec.Diags = findings
			} else {
				rec.Diags = warns
			}
			st.Sema = rec
		}
	}

	diags = append(diags, dryRun(opts, src, fset, sites, sem)...)
	if len(diags) > 0 {
		diags.Sort()
		return nil, warns, diags
	}

	// live holds the outermost lowerings so far, in source order. Sites
	// come in source order, so the one lowered next starts before all of
	// them, and the ones inside it are a prefix of live.
	var live []*edit
	facade, facadeRef := false, opts.Package+"."
	for i := len(sites) - 1; i >= 0; i-- {
		s := sites[i]
		if s.dir.Construct == directive.ConstructSection {
			continue // consumed by the enclosing sections construct
		}
		n := 0
		for n < len(live) && live[n].start < s.end() {
			n++
		}
		g := &gen{
			opts:     opts,
			src:      src,
			fset:     fset,
			sites:    sites,
			sem:      sem,
			threadOK: threadVarInScope(s, sites),
			rtOK:     rtVarInScope(s, sites),
			edits:    live[:n],
		}
		repl, start, end, err := g.lower(s)
		if err == nil {
			err = g.settle(s)
		}
		if err != nil {
			return nil, warns, asDiagnostics(err)
		}
		if st != nil {
			st.Lowered = append(st.Lowered, Step{
				Directive: s.dir,
				Pos:       s.pos,
				Outlined:  strings.Count(repl, "func("),
			})
		}
		live = slices.Insert(live[n:], 0, &edit{site: s, start: start, end: end, repl: repl})
		facade = facade || strings.Contains(repl, facadeRef)
	}
	if len(live) == 0 {
		// Nothing was lowered: emit the input byte for byte. scan has
		// already parsed it, so it is valid Go.
		return src, warns, nil
	}
	src = []byte((&gen{src: src, edits: live}).span(0, len(src)))
	if facade {
		// A lowering that emits no facade call (flush lowers to nothing)
		// must not leave an unused import behind.
		var err error
		if src, err = ensureImport(filename, src, opts); err != nil {
			return nil, warns, err
		}
	}
	formatted, err := format.Source(src)
	if err != nil {
		// Surface the generated source to make codegen bugs debuggable.
		return nil, warns, fmt.Errorf("transform: generated code does not parse: %v\n--- generated ---\n%s", err, src)
	}
	return formatted, warns, nil
}

// dryRun attempts to lower every site in isolation against the untouched
// source, collecting the failures. A clean dry run means every site lowers
// on its own; the real pass can still fail where an outer lowering reads
// what an inner one emitted (see gen.stmts and gen.settle). A dirty one
// yields one positioned diagnostic per bad site.
func dryRun(opts Options, src []byte, fset *token.FileSet, sites []*site, sem *sema.Result) directive.DiagnosticList {
	var diags directive.DiagnosticList
	for _, s := range sites {
		if s.invalid || s.dir.Construct == directive.ConstructSection {
			continue // already diagnosed / consumed by enclosing sections
		}
		g := &gen{
			opts:     opts,
			src:      src,
			fset:     fset,
			sites:    sites,
			sem:      sem,
			threadOK: threadVarInScope(s, sites),
			rtOK:     rtVarInScope(s, sites),
		}
		if _, _, _, err := g.lower(s); err != nil {
			diags = append(diags, asDiagnostics(err)...)
		}
	}
	return diags
}

// asDiagnostics normalises a lowering error into a DiagnosticList.
func asDiagnostics(err error) directive.DiagnosticList {
	switch e := err.(type) {
	case directive.DiagnosticList:
		return e
	case *directive.Diagnostic:
		return directive.DiagnosticList{e}
	default:
		return directive.DiagnosticList{{
			Span: 1, Severity: directive.SevError, Msg: err.Error(),
		}}
	}
}

// goSyntaxDiagnostics converts a go/parser error (a scanner.ErrorList) into
// positioned diagnostics, so even non-Go input reports uniformly.
func goSyntaxDiagnostics(err error) directive.DiagnosticList {
	var diags directive.DiagnosticList
	if list, ok := err.(scanner.ErrorList); ok {
		for _, e := range list {
			diags = append(diags, &directive.Diagnostic{
				File: e.Pos.Filename, Line: e.Pos.Line, Col: e.Pos.Column,
				Span: 1, Kind: directive.DiagSyntax, Severity: directive.SevError,
				Msg: e.Msg,
			})
		}
		return diags
	}
	return directive.DiagnosticList{{
		Span: 1, Kind: directive.DiagSyntax, Severity: directive.SevError,
		Msg: err.Error(),
	}}
}

// Step records one lowering, for the -dump-stages pipeline view.
type Step struct {
	Directive *directive.Directive
	Pos       token.Position
	Outlined  int // number of function literals the lowering produced
}

// scan parses src and collects every directive site, aggregating the
// diagnostics of every bad directive comment instead of stopping at the
// first. Sites whose directive failed to parse or validate are excluded
// from the returned list (they cannot be lowered).
func scan(filename string, src []byte) ([]*site, *token.FileSet, directive.DiagnosticList) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, fset, goSyntaxDiagnostics(err)
	}
	offset := func(p token.Pos) int { return fset.Position(p).Offset }

	// Gather all statements once, sorted by position, for association.
	var stmts []ast.Stmt
	ast.Inspect(file, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			stmts = append(stmts, s)
		}
		return true
	})

	var sites []*site
	var diags directive.DiagnosticList
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//") {
				continue // block comments are not directive carriers
			}
			body, bodyOff, ok := directive.DirectiveBody(c.Text[2:])
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			// The body starts bodyOff bytes after the comment text, which
			// itself starts two slashes after the comment position.
			dpos := directive.Pos{
				File: pos.Filename,
				Line: pos.Line,
				Col:  pos.Column + 2 + bodyOff,
			}
			d, dl := directive.ParseAt(body, dpos)
			diags = append(diags, dl...)
			if d == nil {
				continue // construct unrecognised: no site shape to keep
			}
			s := &site{
				dir:          d,
				commentStart: offset(c.Pos()),
				commentEnd:   offset(c.End()),
				pos:          pos,
				dpos:         dpos,
				dlen:         len(body),
				invalid:      len(dl) > 0,
			}
			// Per-directive, not per-construct: ordered is standalone in
			// its doacross forms (depend(sink)/depend(source)) and
			// block-associated otherwise.
			if !d.IsStandalone() {
				stmt := followingStmt(fset, stmts, c)
				if stmt == nil {
					if !s.invalid {
						diags = append(diags, s.diag(directive.DiagNoStatement,
							"directive %q has no associated statement", d))
					}
					s.invalid = true
				} else {
					s.stmt = stmt
					s.stmtStart = offset(stmt.Pos())
					s.stmtEnd = offset(stmt.End())
				}
			}
			sites = append(sites, s)
		}
	}
	return sites, fset, diags
}

// followingStmt returns the first statement beginning after the comment and
// no more than one line below it.
func followingStmt(fset *token.FileSet, stmts []ast.Stmt, c *ast.Comment) ast.Stmt {
	cEnd := c.End()
	cLine := fset.Position(c.End()).Line
	var best ast.Stmt
	for _, s := range stmts {
		if s.Pos() <= cEnd {
			continue
		}
		if best == nil || s.Pos() < best.Pos() {
			best = s
		}
	}
	if best == nil {
		return nil
	}
	if fset.Position(best.Pos()).Line > cLine+1 {
		return nil
	}
	return best
}

// threadVarInScope reports whether the lowered code for target can assume
// the generated thread variable exists: true when target is enclosed in a
// directive whose lowering introduces one (parallel forms and task).
func threadVarInScope(target *site, sites []*site) bool {
	for _, s := range sites {
		if s == target || s.stmt == nil {
			continue
		}
		encloses := s.stmtStart <= target.commentStart && target.end() <= s.stmtEnd
		if !encloses {
			continue
		}
		switch s.dir.Construct {
		case directive.ConstructParallel, directive.ConstructParallelFor,
			directive.ConstructParallelSections, directive.ConstructTask,
			directive.ConstructTargetTeamsDistributeParallelFor:
			return true
		}
	}
	return false
}

// rtVarInScope reports whether the lowered code for target sits inside a
// target region's kernel, where the __omp_rt device-runtime parameter is in
// scope: true when enclosed by a target (or combined target) directive.
func rtVarInScope(target *site, sites []*site) bool {
	for _, s := range sites {
		if s == target || s.stmt == nil {
			continue
		}
		if s.stmtStart > target.commentStart || target.end() > s.stmtEnd {
			continue
		}
		switch s.dir.Construct {
		case directive.ConstructTarget, directive.ConstructTargetTeamsDistributeParallelFor:
			return true
		}
	}
	return false
}

// end returns the end of the site's replacement span: the statement end, or
// the comment end for standalone directives.
func (s *site) end() int {
	if s.stmt == nil {
		return s.commentEnd
	}
	return s.stmtEnd
}

// ensureImport adds the facade import if the transformed file lacks it.
func ensureImport(filename string, src []byte, opts Options) ([]byte, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ImportsOnly)
	if err != nil {
		return nil, fmt.Errorf("transform: %v", err)
	}
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == opts.ImportPath {
			return src, nil // already imported
		}
	}
	// Insert a standalone import declaration right after the package
	// clause. format.Source leaves it a separate declaration: it is not
	// merged into an existing import block.
	insertAt := fset.Position(file.Name.End()).Offset
	decl := fmt.Sprintf("\n\nimport %s %q", opts.Package, opts.ImportPath)
	var buf []byte
	buf = append(buf, src[:insertAt]...)
	buf = append(buf, decl...)
	buf = append(buf, src[insertAt:]...)
	return buf, nil
}
