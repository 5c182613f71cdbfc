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
// Diagnostics are aggregated: File lowers every directive site once and
// collects every failure, so a file with several bad directives reports all
// of them — as a position-sorted directive.DiagnosticList — in one pass,
// instead of stopping at the first.
package transform

import (
	"fmt"
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
	// Strict makes sema findings block the output like any other
	// diagnostic, Warn reports them as warnings (via FileChecked). Sema
	// only diagnoses: the lowering reads no types, so a file that lowers
	// emits the same bytes in every mode. The unit is the single file;
	// whole-package units are modpipe's job.
	Sema sema.Mode
}

// DefaultOptions returns the options used by gompcc.
func DefaultOptions() Options {
	return Options{Package: "gomp", ImportPath: "repro"}
}

// site is one directive occurrence bound to its source location: the
// scanned directive plus the byte offsets the rewrite works in.
type site struct {
	directive.Site
	commentStart int // byte offsets of the comment
	commentEnd   int
	stmtStart    int // byte offsets of Stmt, when it is set
	stmtEnd      int
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
		File: s.BodyPos.File, Line: s.BodyPos.Line, Col: s.BodyPos.Col,
		Span: max(len(s.Body), 1), Kind: kind, Severity: directive.SevError,
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

// run is the driver: scan and parse every directive site, run the sema
// stage, then lower every valid site once, last comment first, against the
// same parse. An inner site is thus lowered before the outer constructs that
// enclose it, and the outer lowering reads the inner one's replacement
// through the edit list (see gen.span). A site that fails to lower or to
// settle records its diagnostics and adds no edit, so the code around it
// reads its original text and one bad site does not hide the others. st,
// when non-nil, records the pipeline artifacts for -dump-stages.
func run(filename string, src []byte, opts Options, st *Stages) ([]byte, directive.DiagnosticList, error) {
	if opts.Package == "" {
		def := DefaultOptions()
		opts.Package, opts.ImportPath = def.Package, def.ImportPath
	}

	sites, fset, diags := scan(filename, src)
	if st != nil {
		for _, s := range sites {
			if !s.invalid {
				st.Scanned = append(st.Scanned, ScannedDirective{Pos: s.Pos, Text: s.Dir.Text, Parsed: s.Dir})
			}
		}
	}

	// Sema stage: type-check the unit and validate clauses against the
	// types. Its findings are diagnostics only; the lowering reads no types.
	var warns directive.DiagnosticList
	if opts.Sema != sema.Off {
		sem := sema.Check(map[string][]byte{filename: src})
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

	// live holds the outermost lowerings so far, in source order. Sites
	// come in source order, so the one lowered next starts before all of
	// them, and the ones inside it are a prefix of live.
	var live []*edit
	facade, facadeRef := false, opts.Package+"."
	for i := len(sites) - 1; i >= 0; i-- {
		s := sites[i]
		if s.invalid || s.Dir.Construct == directive.ConstructSection {
			continue // already diagnosed / consumed by the enclosing sections construct
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
			threadOK: threadVarInScope(s, sites),
			rtOK:     rtVarInScope(s, sites),
			edits:    live[:n],
		}
		repl, start, end, err := g.lower(s)
		if err == nil {
			err = g.settle(s)
		}
		if err != nil {
			diags = append(diags, asDiagnostics(err)...)
			continue
		}
		if st != nil {
			st.Lowered = append(st.Lowered, Step{
				Directive: s.Dir,
				Pos:       s.Pos,
				Outlined:  strings.Count(repl, "func("),
			})
		}
		live = slices.Insert(live[n:], 0, &edit{site: s, start: start, end: end, repl: repl})
		facade = facade || strings.Contains(repl, facadeRef)
	}
	if len(diags) > 0 {
		diags.Sort()
		return nil, warns, diags
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

// scan parses src and binds every directive site to its byte offsets,
// aggregating the diagnostics of every bad directive comment instead of
// stopping at the first. Sites whose construct was not recognised are
// dropped; the others stay, marked invalid when they cannot be lowered.
func scan(filename string, src []byte) ([]*site, *token.FileSet, directive.DiagnosticList) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, fset, goSyntaxDiagnostics(err)
	}
	offset := func(p token.Pos) int { return fset.Position(p).Offset }
	var sites []*site
	var diags directive.DiagnosticList
	for _, ds := range directive.Sites(fset, file) {
		diags = append(diags, ds.Diags...)
		if ds.Dir == nil {
			continue // construct unrecognised: no site shape to keep
		}
		s := &site{
			Site:         ds,
			commentStart: offset(ds.Comment.Pos()),
			commentEnd:   offset(ds.Comment.End()),
			invalid:      len(ds.Diags) > 0,
		}
		switch {
		case ds.Stmt != nil:
			s.stmtStart, s.stmtEnd = offset(ds.Stmt.Pos()), offset(ds.Stmt.End())
		case !ds.Dir.IsStandalone():
			if !s.invalid {
				diags = append(diags, s.diag(directive.DiagNoStatement,
					"directive %q has no associated statement", ds.Dir))
			}
			s.invalid = true
		}
		sites = append(sites, s)
	}
	return sites, fset, diags
}

// threadVarInScope reports whether the lowered code for target can assume
// the generated thread variable exists: true when target is enclosed in a
// directive whose lowering introduces one (parallel forms and task).
func threadVarInScope(target *site, sites []*site) bool {
	for _, s := range sites {
		if s == target || s.Stmt == nil {
			continue
		}
		encloses := s.stmtStart <= target.commentStart && target.end() <= s.stmtEnd
		if !encloses {
			continue
		}
		switch s.Dir.Construct {
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
		if s == target || s.Stmt == nil {
			continue
		}
		if s.stmtStart > target.commentStart || target.end() > s.stmtEnd {
			continue
		}
		switch s.Dir.Construct {
		case directive.ConstructTarget, directive.ConstructTargetTeamsDistributeParallelFor:
			return true
		}
	}
	return false
}

// end returns the end of the site's replacement span: the statement end, or
// the comment end for standalone directives.
func (s *site) end() int {
	if s.Stmt == nil {
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
