package directive

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a diagnostic.
type Severity int

const (
	// SevError is a diagnostic that prevents lowering.
	SevError Severity = iota
	// SevWarning is advisory; lowering proceeds.
	SevWarning
)

// String returns the compiler-style severity spelling.
func (s Severity) String() string {
	if s == SevWarning {
		return "warning"
	}
	return "error"
}

// DiagKind is the typed category of a diagnostic, so tools (and tests) can
// dispatch on what went wrong instead of matching message strings.
type DiagKind int

const (
	// DiagSyntax is malformed directive text (unbalanced parens, stray
	// characters, a truncated construct).
	DiagSyntax DiagKind = iota
	// DiagUnknownConstruct is a directive whose first word names no
	// OpenMP construct this front end knows.
	DiagUnknownConstruct
	// DiagUnknownClause is a clause keyword the construct grammar lacks.
	DiagUnknownClause
	// DiagBadClauseArg is a clause whose argument is malformed (bad
	// variable name, unknown schedule kind, non-integer collapse, ...).
	DiagBadClauseArg
	// DiagClauseNotAllowed is a well-formed clause that OpenMP 5.2 does
	// not permit on this construct.
	DiagClauseNotAllowed
	// DiagDuplicateClause is a unique clause appearing more than once.
	DiagDuplicateClause
	// DiagConflictingClauses is a pair of clauses that exclude each other
	// (ordered+nowait, one variable in two data-sharing classes).
	DiagConflictingClauses
	// DiagUnsupported is spec-valid input this implementation does not
	// lower (e.g. collapse depths beyond 2).
	DiagUnsupported
	// DiagNoStatement is a non-standalone directive with no associated
	// statement on the next line.
	DiagNoStatement
	// DiagBadNesting is a directive outside the region kind it requires
	// (worksharing outside parallel, ordered outside an ordered loop).
	DiagBadNesting
	// DiagBadLoop is a worksharing directive on a loop that is not in
	// OpenMP canonical form.
	DiagBadLoop
	// DiagInternal is a front-end failure that is not the input's fault: a
	// panic recovered inside the transformer, converted into a positioned
	// diagnostic so whole-module runs report the file and keep going
	// instead of crashing.
	DiagInternal
	// DiagSema is a semantic violation found by type-checking the unit
	// with go/types: a reduction operand whose type does not admit the
	// operator, a clause list naming something that is not an in-scope
	// variable, a map clause on an unmappable kind. Syntactically the
	// directive is fine; the types make it meaningless.
	DiagSema
)

// diagKinds spells the kinds, indexed by value.
var diagKinds = []string{
	DiagSyntax: "syntax", DiagUnknownConstruct: "unknown-construct", DiagUnknownClause: "unknown-clause",
	DiagBadClauseArg: "bad-clause-arg", DiagClauseNotAllowed: "clause-not-allowed",
	DiagDuplicateClause: "duplicate-clause", DiagConflictingClauses: "conflicting-clauses",
	DiagUnsupported: "unsupported", DiagNoStatement: "no-statement", DiagBadNesting: "bad-nesting",
	DiagBadLoop: "bad-loop", DiagInternal: "internal", DiagSema: "sema",
}

// String names the kind for logs and tests.
func (k DiagKind) String() string { return spelling(diagKinds, int(k), "invalid") }

// Pos locates the first byte of a directive body within its source file,
// both 1-based like token.Position. The zero Pos means "position unknown"
// (no file context); diagnostics then report body-relative columns only.
type Pos struct {
	File string
	Line int
	Col  int
}

// IsValid reports whether the position carries real file coordinates.
func (p Pos) IsValid() bool { return p.Line > 0 }

// absolute converts a body-relative byte offset to file coordinates.
// Directive bodies are single-line, so only the column moves.
func (p Pos) absolute(off int) (file string, line, col int) {
	if p.IsValid() {
		return p.File, p.Line, p.Col + off
	}
	return "", 0, off + 1
}

// Diagnostic is one positioned front-end message. Line and Col are 1-based;
// Span is the byte length of the offending token (always >= 1), so printers
// can underline it with a caret.
type Diagnostic struct {
	File     string
	Line     int
	Col      int
	Span     int
	Kind     DiagKind
	Severity Severity
	Msg      string
}

// Position renders the "file:line:col" prefix.
func (d *Diagnostic) Position() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

// Error implements the error interface in the compiler-message shape
// "file:line:col: severity: msg". Without file coordinates it degrades to
// the body-relative "col N: msg".
func (d *Diagnostic) Error() string {
	if d.Line > 0 {
		return fmt.Sprintf("%s: %s: %s", d.Position(), d.Severity, d.Msg)
	}
	return fmt.Sprintf("col %d: %s", d.Col, d.Msg)
}

// DiagnosticList aggregates diagnostics across clauses, directives and
// files. It implements error so APIs can return it directly; use Err to
// avoid the non-nil interface around a nil slice.
type DiagnosticList []*Diagnostic

// Error joins all diagnostics, one per line.
func (l DiagnosticList) Error() string {
	msgs := make([]string, len(l))
	for i, d := range l {
		msgs[i] = d.Error()
	}
	return strings.Join(msgs, "\n")
}

// Err returns the list as an error, or nil when it is empty.
func (l DiagnosticList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

// Sort orders the list by source position (file, then line, then column),
// keeping the original order of exact ties.
func (l DiagnosticList) Sort() {
	sort.SliceStable(l, func(i, j int) bool {
		a, b := l[i], l[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
}

// ErrorCount returns the number of error-severity diagnostics.
func (l DiagnosticList) ErrorCount() int {
	n := 0
	for _, d := range l {
		if d.Severity == SevError {
			n++
		}
	}
	return n
}
