// Package corpusgen writes a deterministic synthetic Go module used to
// stress gompcc's whole-module pipeline at production scale. The roadmap
// originally pointed at /root/related/inoxlang__inox (2668 real Go files)
// as the parse/transform corpus; that file set is not present in this
// environment, so this generator stands in for it: given a seed it emits
// the same module byte-for-byte every time — a mix of
//
//   - clean files (no directives; the transformer must pass them through),
//   - directive files (valid //omp constructs the transformer must lower),
//   - malformed files (bad directives that must each yield at least one
//     positioned diagnostic, never a panic),
//   - ill-typed files (syntactically valid directives whose clauses fail
//     semantic analysis: string reductions, bitwise ops on floats, map
//     clauses naming Go maps — clean sema-off, >= 1 DiagSema strict),
//   - pathological files (deep statement nesting, huge literals, hundreds
//     of tiny functions — parser/printer stress shapes).
//
// Determinism matters doubly here: the generated module doubles as the
// fixture for gompcc's byte-identical-across-worker-counts tests, and the
// malformed-directive templates double as fuzz seeds for the transform
// fuzzers.
package corpusgen

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
)

// Kind classifies a generated file.
type Kind int

const (
	// Clean is plain Go with no directives.
	Clean Kind = iota
	// Directives is Go with valid //omp directives.
	Directives
	// Malformed is Go with at least one bad directive (guaranteed to
	// produce >= 1 error diagnostic, never a panic).
	Malformed
	// Pathological is valid Go with stress shapes: deep nesting, huge
	// literals, long files.
	Pathological
	// IllTyped is type-clean Go whose directives are syntactically valid
	// but semantically wrong (clause/type mismatches): the transformer
	// accepts them with sema off and must report >= 1 positioned DiagSema
	// in strict mode.
	IllTyped
)

// String names the kind for manifests and test output.
func (k Kind) String() string {
	switch k {
	case Clean:
		return "clean"
	case Directives:
		return "directives"
	case Malformed:
		return "malformed"
	case Pathological:
		return "pathological"
	case IllTyped:
		return "ill-typed"
	default:
		return "invalid"
	}
}

// File is one generated file in the manifest.
type File struct {
	Rel  string // path relative to the module root, slash-separated
	Kind Kind
}

// Manifest records what Generate wrote.
type Manifest struct {
	Root   string
	Files  []File
	ByKind map[Kind]int
}

// Config sizes the corpus. The zero value is usable: 2000 files, seed 1.
type Config struct {
	// Files is the total file count (default 2000).
	Files int
	// Seed drives every random choice; equal seeds produce equal modules.
	Seed int64
	// Dirs is the number of package directories (default Files/25, min 1).
	Dirs int
}

// Generate writes the corpus module under root (created if needed),
// including a go.mod so the tree reads as one module. It returns the
// manifest of written files in generation order.
func Generate(root string, cfg Config) (*Manifest, error) {
	if cfg.Files <= 0 {
		cfg.Files = 2000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Dirs <= 0 {
		cfg.Dirs = cfg.Files / 25
		if cfg.Dirs < 1 {
			cfg.Dirs = 1
		}
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	gomod := fmt.Sprintf("module corpus%d\n\ngo 1.24\n", cfg.Seed)
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte(gomod), 0o644); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Manifest{Root: root, ByKind: make(map[Kind]int)}
	for i := 0; i < cfg.Files; i++ {
		dir := fmt.Sprintf("p%03d", i%cfg.Dirs)
		rel := fmt.Sprintf("%s/f%04d.go", dir, i)
		kind := kindFor(i)
		src := emit(kind, dir, i, rng)
		abs := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(abs, []byte(src), 0o644); err != nil {
			return nil, err
		}
		m.Files = append(m.Files, File{Rel: rel, Kind: kind})
		m.ByKind[kind]++
	}
	return m, nil
}

// kindFor fixes the category mix at 40% clean / 20% directives /
// 20% malformed / 10% ill-typed / 10% pathological, deterministically by
// index so tests can predict per-kind counts without re-deriving the
// random stream.
func kindFor(i int) Kind {
	switch i % 10 {
	case 0, 1, 2, 3:
		return Clean
	case 4, 5:
		return Directives
	case 6, 7:
		return Malformed
	case 8:
		return IllTyped
	default:
		return Pathological
	}
}

// emit builds one file's source.
func emit(kind Kind, pkg string, i int, rng *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by corpusgen (seeded); file %d, kind %s.\n", i, kind)
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	switch kind {
	case Clean:
		emitClean(&b, i, rng)
	case Directives:
		emitDirectives(&b, i, rng)
	case Malformed:
		emitMalformed(&b, i, rng)
	case IllTyped:
		emitIllTyped(&b, i, rng)
	case Pathological:
		emitPathological(&b, i, rng)
	}
	return b.String()
}

func emitClean(b *strings.Builder, i int, rng *rand.Rand) {
	n := 1 + rng.Intn(4)
	for f := 0; f < n; f++ {
		c := rng.Intn(1 << 16)
		fmt.Fprintf(b, "func clean%d_%d(n int) int {\n", i, f)
		fmt.Fprintf(b, "\tacc := %d\n", c)
		fmt.Fprintf(b, "\tfor j := 0; j < n; j++ {\n\t\tacc += j*%d + %d\n\t}\n", 1+rng.Intn(9), rng.Intn(100))
		fmt.Fprintf(b, "\treturn acc\n}\n\n")
	}
}

// validDirectiveBodies are known-good region templates; each is a complete
// function body fragment containing at least one lowerable directive.
// corpusgen_test proves every template transforms cleanly (zero
// diagnostics, output differs from input).
var validDirectiveBodies = []string{
	"\tsum := 0\n\t//omp parallel for reduction(+:sum)\n\tfor j := 0; j < n; j++ {\n\t\tsum += j\n\t}\n\treturn sum\n",
	"\ttotal := 0\n\t//omp parallel for schedule(static, 4) reduction(+:total)\n\tfor j := 0; j < n; j++ {\n\t\ttotal += j * 2\n\t}\n\treturn total\n",
	"\tacc := 0\n\t//omp parallel for schedule(nonmonotonic:dynamic) reduction(+:acc)\n\tfor j := 0; j < n; j++ {\n\t\tacc += j % 7\n\t}\n\treturn acc\n",
	"\ts := 0\n\t//omp parallel for collapse(2) reduction(+:s)\n\tfor j := 0; j < n; j++ {\n\t\tfor k := 0; k < n; k++ {\n\t\t\ts += j + k\n\t\t}\n\t}\n\treturn s\n",
	"\tv := 0\n\t//omp parallel\n\t{\n\t\t//omp critical\n\t\t{\n\t\t\tv += n\n\t\t}\n\t}\n\treturn v\n",
	"\tr := 0\n\t//omp parallel num_threads(2)\n\t{\n\t\t//omp for nowait\n\t\tfor j := 0; j < n; j++ {\n\t\t\t_ = j\n\t\t}\n\t\t//omp barrier\n\t}\n\treturn r + n\n",
	"\tx := 0\n\t//omp parallel\n\t{\n\t\t//omp single\n\t\t{\n\t\t\tx = n\n\t\t}\n\t}\n\treturn x\n",
}

func emitDirectives(b *strings.Builder, i int, rng *rand.Rand) {
	n := 1 + rng.Intn(3)
	for f := 0; f < n; f++ {
		body := validDirectiveBodies[rng.Intn(len(validDirectiveBodies))]
		fmt.Fprintf(b, "func region%d_%d(n int) int {\n%s}\n\n", i, f, body)
	}
}

// malformedBodies are bad-directive templates. Every entry must produce at
// least one error-severity positioned diagnostic from the transformer —
// corpusgen_test enforces this, and the stress suite relies on it (every
// Malformed file must diagnose, never panic). They double as fuzz seeds
// via MalformedSeedFiles.
var malformedBodies = []string{
	// Unknown construct.
	"\t//omp parallell\n\t{\n\t\t_ = n\n\t}\n\treturn n\n",
	// Unknown schedule kind.
	"\t//omp parallel for schedule(chaotic)\n\tfor j := 0; j < n; j++ {\n\t\t_ = j\n\t}\n\treturn n\n",
	// Non-integer collapse argument.
	"\t//omp parallel for collapse(two)\n\tfor j := 0; j < n; j++ {\n\t\t_ = j\n\t}\n\treturn n\n",
	// Conflicting clauses: ordered + nowait.
	"\t//omp parallel\n\t{\n\t\t//omp for ordered nowait\n\t\tfor j := 0; j < n; j++ {\n\t\t\t_ = j\n\t\t}\n\t}\n\treturn n\n",
	// Bad reduction operator.
	"\ts := 0\n\t//omp parallel for reduction(?:s)\n\tfor j := 0; j < n; j++ {\n\t\ts += j\n\t}\n\treturn s\n",
	// Unbalanced clause parenthesis.
	"\t//omp parallel num_threads(4\n\t{\n\t\t_ = n\n\t}\n\treturn n\n",
	// Worksharing directive on a non-loop statement.
	"\t//omp parallel for\n\t_ = n\n\treturn n\n",
	// Directive with no associated statement (nothing follows it).
	"\t_ = n\n\treturn n\n\t//omp parallel\n",
	// Bad depend mode on task.
	"\tx := 0\n\t//omp parallel\n\t{\n\t\t//omp task depend(sideways: x)\n\t\t{\n\t\t\tx++\n\t\t}\n\t}\n\treturn x\n",
	// Loop not in canonical form (condition uses >=).
	"\t//omp parallel for\n\tfor j := n; j >= 0; j++ {\n\t\t_ = j\n\t}\n\treturn n\n",
	// Duplicate unique clause.
	"\t//omp parallel num_threads(2) num_threads(3)\n\t{\n\t\t_ = n\n\t}\n\treturn n\n",
	// One variable in two data-sharing classes.
	"\tv := 0\n\t//omp parallel private(v) firstprivate(v)\n\t{\n\t\tv++\n\t}\n\treturn v\n",
}

func emitMalformed(b *strings.Builder, i int, rng *rand.Rand) {
	// One bad region per file (so "every malformed file yields >= 1
	// diagnostic" is attributable), plus optional clean padding.
	body := malformedBodies[rng.Intn(len(malformedBodies))]
	fmt.Fprintf(b, "func bad%d(n int) int {\n%s}\n\n", i, body)
	if rng.Intn(2) == 0 {
		emitClean(b, i+1_000_000, rng)
	}
}

// illTypedBodies are "well-formed syntax, ill-typed semantics" templates:
// the Go compiles, the directive parses, but a clause names an operand
// whose type the operator cannot take. Every entry must transform with
// zero diagnostics under sema off and yield at least one positioned
// DiagSema in strict mode — corpusgen_test enforces both, and the
// module-level sema stress suite relies on the strict half. Each body must
// stay type-clean Go on its own (every declared variable used, no
// imports) so the enclosing package unit type-checks with zero soft
// errors and the full check set stays active.
var illTypedBodies = []string{
	// String reduction: + reduces numeric operands only.
	"\ts := \"\"\n\t//omp parallel for reduction(+: s)\n\tfor j := 0; j < n; j++ {\n\t\ts += \"x\"\n\t}\n\treturn len(s)\n",
	// Bitwise-and reduction on a float.
	"\tacc := 1.5\n\t//omp parallel for reduction(&: acc)\n\tfor j := 0; j < n; j++ {\n\t\tacc += 0.5\n\t}\n\treturn int(acc)\n",
	// map clause naming a Go map value (not mappable to a device).
	"\tm := map[int]int{}\n\t//omp target map(tofrom: m)\n\t{\n\t\tm[0] = n\n\t}\n\treturn len(m)\n",
	// Logical-and reduction on an int.
	"\tok := 7\n\t//omp parallel for reduction(&&: ok)\n\tfor j := 0; j < n; j++ {\n\t\tok++\n\t}\n\treturn ok\n",
	// max reduction on a string (max needs a real numeric operand).
	"\tbest := \"a\"\n\t//omp parallel for reduction(max: best)\n\tfor j := 0; j < n; j++ {\n\t\tbest += \"b\"\n\t}\n\treturn len(best)\n",
	// Data-sharing clause naming an undeclared variable.
	"\t//omp parallel firstprivate(nope)\n\t{\n\t\t_ = n\n\t}\n\treturn n\n",
}

func emitIllTyped(b *strings.Builder, i int, rng *rand.Rand) {
	// One bad region per file (so "every ill-typed file yields >= 1
	// DiagSema" is attributable), plus optional clean padding; the padding
	// index space is disjoint from emitMalformed's so same-package
	// function names never collide.
	body := illTypedBodies[rng.Intn(len(illTypedBodies))]
	fmt.Fprintf(b, "func ill%d(n int) int {\n%s}\n\n", i, body)
	if rng.Intn(2) == 0 {
		emitClean(b, i+2_000_000, rng)
	}
}

func emitPathological(b *strings.Builder, i int, rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0: // Deep statement nesting.
		depth := 40 + rng.Intn(40)
		fmt.Fprintf(b, "func deep%d(n int) int {\n\tacc := 0\n", i)
		for d := 0; d < depth; d++ {
			fmt.Fprintf(b, "%sif n > %d {\n", strings.Repeat("\t", d+1), d)
		}
		fmt.Fprintf(b, "%sacc = n\n", strings.Repeat("\t", depth+1))
		for d := depth - 1; d >= 0; d-- {
			fmt.Fprintf(b, "%s}\n", strings.Repeat("\t", d+1))
		}
		fmt.Fprintf(b, "\treturn acc\n}\n\n")
	case 1: // Huge string literal (~32KB) plus a directive underneath it.
		fmt.Fprintf(b, "const blob%d = %q\n\n", i, strings.Repeat(fmt.Sprintf("x%d", i%7), 16*1024/3))
		fmt.Fprintf(b, "func after%d(n int) int {\n%s}\n\n", i, validDirectiveBodies[rng.Intn(len(validDirectiveBodies))])
	case 2: // Huge composite literal.
		fmt.Fprintf(b, "var table%d = [...]int{", i)
		count := 2000 + rng.Intn(2000)
		for j := 0; j < count; j++ {
			if j%16 == 0 {
				b.WriteString("\n\t")
			}
			fmt.Fprintf(b, "%d, ", (i+j)%997)
		}
		fmt.Fprintf(b, "\n}\n\n")
	default: // Hundreds of tiny functions.
		count := 150 + rng.Intn(150)
		for f := 0; f < count; f++ {
			fmt.Fprintf(b, "func tiny%d_%d() int { return %d }\n", i, f, f)
		}
		b.WriteString("\n")
	}
}

// MalformedSeedFiles wraps each malformed template into a complete Go file,
// ready to feed a fuzzer's seed corpus (f.Add) or the transformer directly.
func MalformedSeedFiles() []string {
	out := make([]string, len(malformedBodies))
	for i, body := range malformedBodies {
		out[i] = fmt.Sprintf("package p\n\nfunc bad%d(n int) int {\n%s}\n", i, body)
	}
	return out
}

// IllTypedSeedFiles wraps each ill-typed template into a complete Go file:
// fuzz seeds for the "diagnose-or-transform, never panic" property with
// sema on, and the fixture set for the strict-mode template test.
func IllTypedSeedFiles() []string {
	out := make([]string, len(illTypedBodies))
	for i, body := range illTypedBodies {
		out[i] = fmt.Sprintf("package p\n\nfunc ill%d(n int) int {\n%s}\n", i, body)
	}
	return out
}

// ValidSeedFiles wraps each valid directive template into a complete Go
// file; useful as positive fuzz seeds alongside MalformedSeedFiles.
func ValidSeedFiles() []string {
	out := make([]string, len(validDirectiveBodies))
	for i, body := range validDirectiveBodies {
		out[i] = fmt.Sprintf("package p\n\nfunc region%d(n int) int {\n%s}\n", i, body)
	}
	return out
}
