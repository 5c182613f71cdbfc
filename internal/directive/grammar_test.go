package directive

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// grammarGolden pins what the front end does with every construct and
// clause: one line per input, holding the input, d.String() and every
// diagnostic's kind, column, span and message.
var grammarGolden = filepath.Join("testdata", "grammar.golden")

// goldenConstructs is every construct spelling, plus cancel and
// cancellation point with their construct type, which bare would take the
// first clause's word.
var goldenConstructs = []string{
	"parallel", "parallel for", "parallel sections", "for", "sections",
	"section", "single", "master", "masked", "critical", "barrier", "atomic",
	"ordered", "task", "taskwait", "taskgroup", "taskloop", "flush", "cancel",
	"cancel parallel", "cancellation point", "cancellation point for",
	"taskyield", "target", "target data", "target enter data",
	"target exit data", "target update",
	"target teams distribute parallel for",
}

// goldenClauses holds one well-formed sample per clause (two for the
// clauses with a bare and a parenthesised form).
var goldenClauses = []string{
	"private(a)", "firstprivate(b, c)", "lastprivate(d)", "shared(e)",
	"copyprivate(f)", "default(none)", "default(shared)", "reduction(+:s)",
	"reduction(max: m, n)", "schedule(dynamic,4)",
	"schedule(nonmonotonic:guided)", "num_threads(4)", "if(n > (a+b))",
	"collapse(2)", "nowait", "ordered", "ordered(2)", "proc_bind(close)",
	"grainsize(8)", "untied", "depend(in: a, m[i][j+1])", "depend(sink: i-1)",
	"depend(source)", "priority(2)", "final(n < 8)", "num_tasks(4)", "nogroup",
	"map(to: a)", "map(b)", "device(1)", "num_teams(2)", "thread_limit(4)",
	"is_device_ptr(p)", "to(a)", "from(b)",
}

// goldenMalformed holds each clause's malformed-argument samples: missing
// or unbalanced parentheses, bad identifiers, unknown operators, kinds,
// modifiers, map-types and dependence types, bad integers, and words that
// name no clause.
var goldenMalformed = []string{
	"private", "private(", "private(a-b)", "private()", "private(1a, b)",
	"firstprivate(a.b)", "lastprivate", "shared(a,)", "copyprivate(&x)",
	"default", "default(maybe)", "reduction", "reduction(%:x)",
	"reduction(+ x)", "reduction(+:2bad)", "reduction(:x)", "schedule",
	"schedule(chaotic)", "schedule(perchance:dynamic)", "schedule(:dynamic)",
	"schedule(nonmonotonic:static)", "schedule(static,)",
	"schedule(static,1,2)", "num_threads", "num_threads()", "num_threads(4",
	"if()", "collapse", "collapse(three)", "collapse(0)", "ordered(x)",
	"ordered(0)", "ordered(", "nowait(1)", "proc_bind(diagonal)", "grainsize",
	"depend", "depend(frob: x)", "depend(in x)", "depend(in: 1x)",
	"depend(in: )", "depend(sink: )", "depend(source: x)", "priority()",
	"map", "map(frob: a)", "map(to: 1a)", "map(:a)", "device(-1)",
	"is_device_ptr(1a)", "to", "from(a b)", "frobnicate(x)", "name(x)", "$",
	"ü",
}

// goldenOthers holds the construct arguments' other forms, misspelt
// continuations of multi-word spellings and bodies that name no construct.
var goldenOthers = []string{
	"critical(q)", "critical (q) nowait", "critical(", "atomic read",
	"atomic write", "atomic update", "atomic capture", "atomic bogus",
	"flush(a, b)", "flush(", "cancel for", "cancel sections",
	"cancel taskgroup if(x)", "cancel bogus", "cancel for(x)",
	"cancellation point parallel", "cancellation point taskgroup",
	"", "   ", "))((", "simd", "Parallel", "parallelfor", "parallel\tfor",
	"parallel  for   private(a)", "parallel forx", "target dat",
	"cancellation pont for", "cancellation pont", "target enter dat",
	"target exit map(from: a)", "target teams distribute parallel",
	"target teams distribute parallel private(a)",
	"target teams foo parallel for",
}

func goldenInputs() []string {
	var in []string
	cuts := map[string]bool{}
	for _, s := range goldenConstructs {
		words := strings.Fields(s)
		for i := 1; i < len(words); i++ {
			if cut := strings.Join(words[:i], " "); !cuts[cut] {
				cuts[cut] = true
				in = append(in, cut, cut+" nowait", cut+" map(to: a)")
			}
		}
	}
	in = append(in, goldenOthers...)
	for _, s := range goldenConstructs {
		in = append(in, s)
		for _, c := range goldenClauses {
			in = append(in, s+" "+c, s+" "+c+" "+c)
		}
		for _, c := range goldenMalformed {
			in = append(in, s+" "+c)
		}
	}
	return in
}

// grammarLine renders one input: the body, the directive's canonical
// spelling ("nil" when no construct was recognised) and every diagnostic.
func grammarLine(body string) string {
	d, diags := ParseAt(body, Pos{})
	line := fmt.Sprintf("%q nil", body)
	if d != nil {
		line = fmt.Sprintf("%q %q", body, d.String())
	}
	for _, dg := range diags {
		line += fmt.Sprintf(" | %s %d+%d %s", dg.Kind, dg.Col, dg.Span, dg.Msg)
	}
	return line + "\n"
}

// TestGrammarGolden compares the grammar's behaviour on goldenInputs with
// testdata/grammar.golden. To regenerate after an intended change, delete
// the file and run the test: it writes the file and fails once.
func TestGrammarGolden(t *testing.T) {
	var b strings.Builder
	for _, in := range goldenInputs() {
		b.WriteString(grammarLine(in))
	}
	got := []byte(b.String())
	want, err := os.ReadFile(grammarGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(grammarGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing and has been written; commit it", grammarGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("grammar drifted from %s at line %d:\n got  %s\n want %s\n"+
				"to regenerate: rm internal/directive/%s && go test -run TestGrammarGolden ./internal/directive/",
				grammarGolden, i+1, gl[i], wl[i], grammarGolden)
		}
	}
	t.Fatalf("grammar drifted from %s: %d lines, want %d", grammarGolden, len(gl), len(wl))
}

// TestGrammarTables checks what the compiler cannot: the construct table
// lists longer spellings first, every construct and clause has a row, and
// every clause a construct allows names a clause row.
func TestGrammarTables(t *testing.T) {
	for i, r := range constructs {
		words := len(strings.Fields(r.spelling))
		if i > 0 && words > len(strings.Fields(constructs[i-1].spelling)) {
			t.Errorf("row %q comes after the shorter %q", r.spelling, constructs[i-1].spelling)
		}
		if r.prefix >= words {
			t.Errorf("row %q: prefix %d leaves no word to commit to", r.spelling, r.prefix)
		}
		for _, name := range strings.Fields(r.clauses) {
			found := false
			for _, c := range clauses {
				found = found || c.name == name
			}
			if !found {
				t.Errorf("row %q allows %q, which names no clause", r.spelling, name)
			}
		}
	}
	for c := ConstructParallel; c <= ConstructTargetTeamsDistributeParallelFor; c++ {
		if constructRowOf(c) == nil {
			t.Errorf("construct %d has no row", c)
		}
	}
	for k := ClausePrivate; k <= ClauseFrom; k++ {
		if clauseRowOf(k) == nil {
			t.Errorf("clause %d has no row", k)
		}
	}
}
