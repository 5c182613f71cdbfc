package directive

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// TestSitesAssociation pins the association rule on small shapes: the
// first statement after the comment, at most one line below, and none for
// standalone directives or block comments.
func TestSitesAssociation(t *testing.T) {
	src := `package p

func f(n int) {
	//omp parallel
	{
		//omp barrier
		_ = n
	}
	//omp single

	_ = n
	/*omp parallel*/
	_ = n
	//omp bogus
	//omp critical
	for i := 0; i < n; i++ { _ = i }
}
`
	fset := token.NewFileSet()
	f, err := goparser.ParseFile(fset, "s.go", src, goparser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sites := Sites(fset, f)
	want := []struct {
		line    int
		parsed  bool
		stmtLn  int // 0: no statement
		ndiags  int
		bodyCol int
	}{
		{4, true, 5, 0, 8},
		{6, true, 0, 0, 9},
		{9, true, 0, 0, 8},
		{14, false, 0, 1, 8},
		{15, true, 16, 0, 8},
	}
	if len(sites) != len(want) {
		t.Fatalf("got %d sites, want %d", len(sites), len(want))
	}
	for i, w := range want {
		s := sites[i]
		stmtLn := 0
		if s.Stmt != nil {
			stmtLn = fset.Position(s.Stmt.Pos()).Line
		}
		if s.Pos.Line != w.line || (s.Dir != nil) != w.parsed || stmtLn != w.stmtLn ||
			len(s.Diags) != w.ndiags || s.BodyPos.Line != w.line || s.BodyPos.Col != w.bodyCol {
			t.Errorf("site %d: line %d parsed %v stmt line %d diags %d body col %d; want %+v",
				i, s.Pos.Line, s.Dir != nil, stmtLn, len(s.Diags), s.BodyPos.Col, w)
		}
	}
}

// TestSitesMatchesLinearScan checks the binary search against a scan of
// every statement for the nearest one after each comment, over the
// committed directive sources.
func TestSitesMatchesLinearScan(t *testing.T) {
	files, _ := filepath.Glob("../../examples/*/source.go.txt")
	nested, _ := filepath.Glob("../transform/testdata/nested/*.go.txt")
	files = append(files, nested...)
	if len(files) == 0 {
		t.Fatal("no directive sources found")
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		f, err := goparser.ParseFile(fset, name, src, goparser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		var stmts []ast.Stmt
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(ast.Stmt); ok {
				stmts = append(stmts, s)
			}
			return true
		})
		for _, s := range Sites(fset, f) {
			if s.Dir == nil || s.Dir.IsStandalone() {
				continue
			}
			var best ast.Stmt
			for _, st := range stmts {
				if st.Pos() > s.Comment.End() && (best == nil || st.Pos() < best.Pos()) {
					best = st
				}
			}
			if best != nil && fset.Position(best.Pos()).Line > fset.Position(s.Comment.End()).Line+1 {
				best = nil
			}
			if s.Stmt != best {
				t.Errorf("%s: %s: Sites bound %v, linear scan %v", name, s.Pos, s.Stmt, best)
			}
		}
	}
}
