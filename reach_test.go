// The reachability gate: every non-test function of a library package of
// this module must be reached by a binary the module ships or by the API
// root, which stands for the OpenMP routines, constructs, clauses and ICVs
// the facade implements. Code only tests reach fails the gate, so it goes
// instead of accumulating.
package gomp_test

import (
	"bufio"
	"bytes"
	"errors"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// reachRoots are the main packages whose linked code counts as reached:
// the two commands, the benchmark, every example, and the API root.
var reachRoots = []string{
	"./cmd/gompcc", "./cmd/ompinfo", "./bench", "./examples/...", "./testdata/reachroot",
}

// reachExceptions lists the functions no root reaches that stay, each with
// the reason. An exception is a test fixture that other packages' tests
// import, or a test hook through which a test of another package asserts;
// the reason names that test. A hook only its own package's tests use
// belongs in that package's export_test.go instead.
var reachExceptions = map[string]string{
	"repro/internal/modpipe/corpusgen.ValidSeedFiles":     "fixture: seeds of FuzzModpipeFile (internal/modpipe) and FuzzFile (internal/transform)",
	"repro/internal/modpipe/corpusgen.MalformedSeedFiles": "fixture: seeds of FuzzModpipeFile (internal/modpipe) and FuzzFile (internal/transform)",
	"repro/internal/modpipe/corpusgen.IllTypedSeedFiles":  "fixture: seeds of FuzzModpipeFile (internal/modpipe) and FuzzFile (internal/transform)",
	"repro/internal/kmp.(*Pool).IdleWorkers":              "hook: internal/core TestTeamsParallelPerMemberHotTeams",
	"repro/internal/kmp.(*Pool).ThreadBudgetUsed":         "hook: internal/core TestMultiTenantStorm, TestSetNumThreadsDuringStorm, TestTaskPanicContained",
	"repro/internal/task.(*Unit).Tid":                     "hook: internal/kmp TestBarrierWaitExecutesReleasedSuccessorAfterDoorPark, TestBarrierWaitStealsLateSpawnedTasks",
	"repro/internal/trace.(*Recorder).Count":              "hook: internal/core TestTraceRegionForkJoin, TestTraceBarrierPairs, TestTraceTasks, TestTraceCritical, TestTraceDoacrossEvents",
	"repro/internal/trace.(*Recorder).Records":            "hook: internal/core TestTraceRegionForkJoin, TestTraceLoopChunksCoverTripCount",
}

// TestReachability links every root with the linker's dependency dump
// (inlining off for this module, so small functions are not hidden) and
// fails on any library function no root reaches and no exception lists,
// and on any exception that a root now reaches or that no longer exists.
func TestReachability(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	args := append([]string{"build", "-o", t.TempDir() + string(filepath.Separator),
		"-gcflags=repro/...=-l", "-ldflags=-dumpdep"}, reachRoots...)
	cmd := exec.Command(goBin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build of the roots: %v\n%s", err, tail(out.Bytes(), 4096))
	}
	reached := reachedSymbols(out.Bytes())
	if len(reached) == 0 {
		t.Fatal("the linker's dependency dump named no symbol")
	}

	funcs := libraryFuncs(t)
	var dead []string
	for sym, pos := range funcs {
		_, excepted := reachExceptions[sym]
		switch {
		case reached[sym] && excepted:
			t.Errorf("%s: %s is listed as an exception but a root now reaches it; drop it from reachExceptions", pos, sym)
		case !reached[sym] && !excepted:
			dead = append(dead, pos+": "+sym)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no root; delete it, or list it in reachExceptions with the test that needs it", d)
	}
	for sym := range reachExceptions {
		if _, ok := funcs[sym]; !ok {
			t.Errorf("reachExceptions lists %s, which is no longer a library function", sym)
		}
	}
}

// reachedSymbols reads the linker's "from -> to" edges and returns every
// symbol named, with type-argument lists removed so that each instance of a
// generic function counts for its declaration.
func reachedSymbols(dump []byte) map[string]bool {
	reached := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, s := range []string{from, to} {
			s, _, _ = strings.Cut(s, " <")
			reached[stripTypeArgs(s)] = true
		}
	}
	return reached
}

// stripTypeArgs removes every bracketed group from a symbol name.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// libraryFuncs returns the linker symbol of every top-level function and
// method declared in a non-test file of a non-main package of this module,
// with its file:line.
func libraryFuncs(t *testing.T) map[string]string {
	t.Helper()
	funcs := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		if pkg.Name == "main" {
			return nil
		}
		importPath := path.Join("repro", filepath.ToSlash(dir))
		for _, name := range pkg.GoFiles {
			file := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				funcs[importPath+"."+recvPrefix(fn)+fn.Name.Name] = fset.Position(fn.Pos()).String()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// recvPrefix spells a method's receiver as the linker does: "(*T)." or "T.".
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ, ptr := fn.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}
