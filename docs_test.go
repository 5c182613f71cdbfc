// Doc-drift guards: README.md is the front door's directive/clause matrix,
// and it must not fall behind the parser. These tests enumerate what the
// front end actually accepts — constructs, clauses, schedule kinds and
// modifiers, OMP_SCHEDULE spellings — and fail if README.md stops
// mentioning any of them (CI runs them as the doc-drift check).
package gomp_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/directive"
	"repro/internal/icv"
	"repro/internal/sema"
)

func readme(t *testing.T) string {
	t.Helper()
	buf, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md must exist at the module root: %v", err)
	}
	return string(buf)
}

func design(t *testing.T) string {
	t.Helper()
	buf, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("DESIGN.md must exist at the module root: %v", err)
	}
	return string(buf)
}

func TestREADMEListsEveryClause(t *testing.T) {
	md := readme(t)
	for k := directive.ClauseKind(1); k < 64; k++ {
		spelling := k.String()
		if spelling == "invalid" {
			continue
		}
		if spelling == "name" {
			// The internal clause node for critical(name) / cancel types;
			// README documents it under its constructs.
			continue
		}
		if !strings.Contains(md, spelling) {
			t.Errorf("README.md does not mention parser-known clause %q", spelling)
		}
	}
}

func TestREADMEListsEveryConstruct(t *testing.T) {
	md := readme(t)
	for c := directive.ConstructParallel; c < 64; c++ {
		spelling := directive.Construct(c).String()
		if spelling == "invalid" {
			continue
		}
		if !strings.Contains(md, spelling) {
			t.Errorf("README.md does not mention parser-known construct %q", spelling)
		}
	}
}

func TestREADMEListsEveryScheduleSpelling(t *testing.T) {
	md := readme(t)
	// Directive-level kinds and modifiers (what the schedule clause parses).
	for k := directive.ScheduleKind(0); k < 16; k++ {
		spelling := k.String()
		if spelling == "invalid" {
			continue
		}
		if !strings.Contains(md, spelling) {
			t.Errorf("README.md does not mention schedule kind %q", spelling)
		}
	}
	for _, mod := range []directive.ScheduleModifier{directive.ModifierMonotonic, directive.ModifierNonmonotonic} {
		if !strings.Contains(md, mod.String()) {
			t.Errorf("README.md does not mention schedule modifier %q", mod)
		}
	}
	// ICV-level spellings (what OMP_SCHEDULE parses), including the steal
	// extension names, must round-trip through the parser and be documented.
	for _, spelling := range []string{"steal", "static_steal", "nonmonotonic:dynamic"} {
		if _, err := icv.ParseSchedule(spelling); err != nil {
			t.Errorf("documented OMP_SCHEDULE spelling %q no longer parses: %v", spelling, err)
		}
		if !strings.Contains(md, spelling) {
			t.Errorf("README.md does not mention OMP_SCHEDULE spelling %q", spelling)
		}
	}
	for k := icv.ScheduleKind(0); k < 16; k++ {
		spelling := k.String()
		if strings.HasPrefix(spelling, "ScheduleKind(") {
			continue
		}
		if _, err := icv.ParseSchedule(spelling); err != nil {
			t.Errorf("ScheduleKind %v renders as %q, which ParseSchedule rejects: %v", int(k), spelling, err)
		}
		if !strings.Contains(md, spelling) {
			t.Errorf("README.md does not mention OMP_SCHEDULE kind %q", spelling)
		}
	}
}

func TestREADMELinksTheArtifacts(t *testing.T) {
	md := readme(t)
	for _, want := range []string{
		"DESIGN.md", "BENCHMARK.json", "bench/", "examples/quickstart", "cmd/gompcc",
		"gompcc", "OMP_SCHEDULE",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("README.md does not reference %s", want)
		}
	}
}

// docPath matches a cmd/… or internal/… path, or a root *.json file, that
// does not continue a longer path or import path.
var docPath = regexp.MustCompile(`(?:^|[^\w/.-])((?:cmd|internal)/[\w./-]*[\w/]|[\w-]+\.json)\b`)

// TestREADMEAndDESIGNNameOnlyPathsThatExist fails on a stale path: every
// cmd/…, internal/… and root *.json path the two documents name must exist.
func TestREADMEAndDESIGNNameOnlyPathsThatExist(t *testing.T) {
	for name, md := range map[string]string{"README.md": readme(t), "DESIGN.md": design(t)} {
		for _, m := range docPath.FindAllStringSubmatch(md, -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s names %s, which does not exist", name, m[1])
			}
		}
	}
}

// TestREADMEReductionOps keeps the documented reduction operator list in
// sync with the parser's table (escaped | is checked unescaped).
func TestREADMEReductionOps(t *testing.T) {
	md := readme(t)
	for _, op := range []string{"+", "-", "*", "max", "min", "&", "^"} {
		d, diags := directive.ParseAt(fmt.Sprintf("for reduction(%s:x)", op), directive.Pos{})
		if err := diags.Err(); err != nil || len(d.Reductions()) != 1 {
			t.Fatalf("parser rejected reduction op %q: %v", op, err)
		}
		if !strings.Contains(md, op) {
			t.Errorf("README.md does not mention reduction operator %q", op)
		}
	}
}

// TestREADMEModuleMode keeps the "Whole-module usage" section honest: the
// module-mode flags gompcc actually defines, the artifacts the pipeline
// produces, and the never-panic/caching vocabulary must all be documented.
func TestREADMEModuleMode(t *testing.T) {
	md := readme(t)
	if !strings.Contains(md, "Whole-module usage") {
		t.Fatal("README.md lacks the \"Whole-module usage\" section")
	}
	for _, flagName := range []string{"`-j", "`-cache", "`-maxerrors", "`-o"} {
		if !strings.Contains(md, flagName) {
			t.Errorf("README.md module section does not document the %s flag", flagName+"`")
		}
	}
	for _, want := range []string{
		"bench/", "gompcc-module", "internal/modpipe/corpusgen",
		"recover()", "cache hits",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("README.md does not reference %s", want)
		}
	}
}

// TestREADMESemaMode keeps the semantic-analysis docs honest: the -sema
// flag and every mode spelling it accepts must be documented, every
// documented spelling must still parse, and the sema diagnostic kind must
// appear by name.
func TestREADMESemaMode(t *testing.T) {
	md := readme(t)
	if !strings.Contains(md, "`-sema") {
		t.Error("README.md module section does not document the -sema flag")
	}
	for _, spelling := range []string{"strict", "warn", "off"} {
		if _, err := sema.ParseMode(spelling); err != nil {
			t.Errorf("documented sema mode %q no longer parses: %v", spelling, err)
		}
		if !strings.Contains(md, spelling) {
			t.Errorf("README.md does not mention sema mode %q", spelling)
		}
	}
	if kind := directive.DiagSema.String(); !strings.Contains(md, kind) {
		t.Errorf("README.md does not mention the %q diagnostic kind", kind)
	}
}

// TestDESIGNSemanticAnalysis pins the DESIGN.md coverage the sema layer
// promises: the dedicated section, the unit-granularity and importer
// caveats, and the byte-identity/zero-false-positive vocabulary.
func TestDESIGNSemanticAnalysis(t *testing.T) {
	dd := design(t)
	for _, want := range []string{
		"## Semantic analysis (`internal/sema`)",
		"go/types", "importer.Default", "SoftErrors",
		"Unit granularity", "Importer fallback", "warn mode",
		"false positives",
	} {
		if !strings.Contains(dd, want) {
			t.Errorf("DESIGN.md does not cover %q", want)
		}
	}
}

// TestREADMEListsEveryAPIRoutine keeps README.md's "OpenMP API routines"
// table and the reachability gate's API root (testdata/reachroot) one
// list: every (OpenMP name, GoMP spelling) pair of the root's table must be
// a row of the README table, and every row an entry of the root.
func TestREADMEListsEveryAPIRoutine(t *testing.T) {
	root := apiRootEntries(t)
	if len(root) == 0 {
		t.Fatal("testdata/reachroot lists no API entry")
	}
	md := readme(t)
	const heading = "## OpenMP API routines"
	i := strings.Index(md, heading)
	if i < 0 {
		t.Fatalf("README.md lacks the %q section", heading)
	}
	section := md[i+len(heading):]
	if j := strings.Index(section, "\n## "); j >= 0 {
		section = section[:j]
	}
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 2 {
			t.Errorf("README.md API row %q does not have two cells", line)
			continue
		}
		for k, c := range cells {
			cells[k] = strings.ReplaceAll(strings.Trim(c, "`"), `\|`, "|")
		}
		rows = append(rows, cells[0]+" = "+cells[1])
	}
	for _, e := range setDiff(root, rows) {
		t.Errorf("testdata/reachroot lists %s, which README.md's API table lacks", e)
	}
	for _, e := range setDiff(rows, root) {
		t.Errorf("README.md's API table lists %s, which testdata/reachroot lacks", e)
	}
}

// apiRootEntries reads the api table of testdata/reachroot/main.go as
// "OpenMP name = GoMP spelling" strings, the spelling without the package
// qualifier or type arguments.
func apiRootEntries(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "testdata/reachroot/main.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "api" || len(spec.Values) != 1 {
			return true
		}
		for _, elt := range spec.Values[0].(*ast.CompositeLit).Elts {
			pair := elt.(*ast.CompositeLit).Elts
			name, err := strconv.Unquote(pair[0].(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			spelling := strings.ReplaceAll(stripTypeArgs(types.ExprString(pair[1])), "gomp.", "")
			entries = append(entries, name+" = "+spelling)
		}
		return false
	})
	return entries
}

// setDiff returns the elements of a that b lacks, counting repeats.
func setDiff(a, b []string) []string {
	have := map[string]int{}
	for _, s := range b {
		have[s]++
	}
	var out []string
	for _, s := range a {
		if have[s] > 0 {
			have[s]--
			continue
		}
		out = append(out, s)
	}
	return out
}
