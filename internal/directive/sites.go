package directive

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Site is one directive comment of a parsed Go file: the intercepted
// comment, its parsed directive and the statement the directive annotates.
type Site struct {
	Comment *ast.Comment
	Pos     token.Position // position of the comment
	BodyPos Pos            // position of the directive body inside the comment
	Body    string
	// Dir is the parsed directive; nil when no construct was recognised.
	Dir *Directive
	// Diags holds Dir's parse and validation diagnostics.
	Diags DiagnosticList
	// Stmt is the associated statement: the first statement that begins
	// after the comment, at most one line below it. It is nil for
	// standalone directives and when no such statement exists.
	Stmt ast.Stmt
}

// Sites scans f's line comments for directives, parses each one and binds
// it to its statement, in source order. Block comments are not directive
// carriers.
func Sites(fset *token.FileSet, f *ast.File) []Site {
	// ast.Inspect visits statements in position order, so the statement
	// after a comment is a binary search away.
	var stmts []ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			stmts = append(stmts, s)
		}
		return true
	})
	var sites []Site
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//") {
				continue
			}
			body, bodyOff, ok := DirectiveBody(c.Text[2:])
			if !ok {
				continue
			}
			s := Site{Comment: c, Pos: fset.Position(c.Pos()), Body: body}
			// The body starts bodyOff bytes after the comment text, which
			// itself starts two slashes after the comment position.
			s.BodyPos = Pos{File: s.Pos.Filename, Line: s.Pos.Line, Col: s.Pos.Column + 2 + bodyOff}
			s.Dir, s.Diags = ParseAt(body, s.BodyPos)
			// Per-directive, not per-construct: ordered is standalone in its
			// doacross forms and block-associated otherwise.
			if s.Dir != nil && !s.Dir.IsStandalone() {
				i := sort.Search(len(stmts), func(i int) bool { return stmts[i].Pos() > c.End() })
				if i < len(stmts) && fset.Position(stmts[i].Pos()).Line <= fset.Position(c.End()).Line+1 {
					s.Stmt = stmts[i]
				}
			}
			sites = append(sites, s)
		}
	}
	return sites
}
