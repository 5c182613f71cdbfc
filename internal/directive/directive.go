// Package directive lexes, parses and validates OpenMP directives written
// as Go comments. Zig has no pragma syntax, so the paper encodes OpenMP
// directives in comments ("similar to OpenMP in Fortran") and intercepts
// them during preprocessing; Go has the same property, and this package is
// that front end. A directive comment looks like:
//
//	//omp parallel for schedule(dynamic,4) reduction(+:sum) private(x)
//
// The grammar is spelled once, in two tables (grammar.go): the construct
// table gives each construct's words, whether it is standalone, its own
// argument and its valid clauses; the clause table gives each clause's
// name, argument shape and whether it may repeat. The parser, the String
// methods and Validate all read them, so adding a construct or a clause is
// one row. The parser produces a Directive AST — a Construct plus a list of
// typed Clause nodes — that internal/transform lowers to runtime calls after
// validation against the clause-compatibility rules of OpenMP 5.2. Errors
// are positioned Diagnostics aggregated in a DiagnosticList, so one pass
// reports every problem in a file, compiler-style.
package directive

import (
	"fmt"
	"strings"
)

// Construct is the directive's construct kind. The construct table holds
// each one's spelling, whether it is standalone and its valid clauses.
type Construct int

// The constructs; ConstructInvalid is the zero value.
const (
	ConstructInvalid Construct = iota
	ConstructParallel
	ConstructFor
	ConstructParallelFor
	ConstructSections
	ConstructParallelSections
	ConstructSection
	ConstructSingle
	ConstructMaster
	ConstructCritical
	ConstructBarrier
	ConstructAtomic
	ConstructOrdered
	ConstructTask
	ConstructTaskwait
	ConstructTaskgroup
	ConstructTaskloop
	ConstructFlush
	ConstructCancel
	ConstructCancellationPoint
	ConstructTaskyield
	ConstructTarget
	ConstructTargetData
	ConstructTargetEnterData
	ConstructTargetExitData
	ConstructTargetUpdate
	ConstructTargetTeamsDistributeParallelFor
)

// String returns the directive spelling.
func (c Construct) String() string {
	if r := constructRowOf(c); r != nil {
		return r.spelling
	}
	return "invalid"
}

// IsStandalone reports whether the construct has no associated statement.
func (c Construct) IsStandalone() bool {
	r := constructRowOf(c)
	return r != nil && r.standalone
}

// ClauseKind identifies a clause. The clause table holds each one's name,
// argument shape and whether it may repeat.
type ClauseKind int

// The clauses; ClauseInvalid is the zero value.
const (
	ClauseInvalid ClauseKind = iota
	ClausePrivate
	ClauseFirstprivate
	ClauseLastprivate
	ClauseShared
	ClauseCopyprivate
	ClauseDefault
	ClauseReduction
	ClauseSchedule
	ClauseNumThreads
	ClauseIf
	ClauseCollapse
	ClauseNowait
	ClauseOrdered
	ClauseProcBind
	ClauseGrainsize
	ClauseUntied
	ClauseName
	ClauseDepend
	ClausePriority
	ClauseFinal
	ClauseNumTasks
	ClauseNogroup
	ClauseMap
	ClauseDevice
	ClauseNumTeams
	ClauseThreadLimit
	ClauseIsDevicePtr
	ClauseTo
	ClauseFrom
)

// String returns the clause spelling.
func (k ClauseKind) String() string {
	if r := clauseRowOf(k); r != nil {
		return r.name
	}
	return "invalid"
}

// ScheduleKind is the schedule clause's iteration-distribution policy.
type ScheduleKind int

const (
	// SchedStatic divides iterations into blocks (or round-robins chunks).
	SchedStatic ScheduleKind = iota
	// SchedDynamic hands out chunks first-come first-served.
	SchedDynamic
	// SchedGuided hands out exponentially shrinking chunks.
	SchedGuided
	// SchedAuto lets the runtime choose.
	SchedAuto
	// SchedRuntime defers to OMP_SCHEDULE.
	SchedRuntime
)

// String returns the clause spelling of the schedule kind.
func (k ScheduleKind) String() string { return spelling(scheduleKinds, int(k), "invalid") }

// DefaultMode is the argument of the default clause.
type DefaultMode int

// The default clause's modes.
const (
	DefaultShared DefaultMode = iota
	DefaultNone
)

// String returns the clause spelling of the mode.
func (m DefaultMode) String() string { return spelling(defaultModes, int(m), "shared") }

// Clause is one parsed clause node. Each argument shape of the clause table
// builds its own concrete type carrying exactly its payload. Consumers
// normally reach clauses through the typed accessors on Directive
// (Schedule, Reductions, Vars, Expr, ...) rather than type-switching.
type Clause interface {
	// ClauseKind identifies the clause.
	ClauseKind() ClauseKind
	// Span returns the clause's byte range within the directive body
	// (start offset and length), for positioned diagnostics.
	Span() (start, length int)
	// String renders the canonical clause spelling.
	String() string
}

// span locates a clause within the directive body; embedded by every
// concrete clause type.
type span struct{ start, length int }

// Span returns the byte range within the directive body.
func (s span) Span() (start, length int) { return s.start, s.length }

// Symbol is a sema-resolved clause operand: what a name in a variable list
// turned out to be once the enclosing unit was type-checked. The parser
// leaves Syms nil; internal/sema fills it (one entry per Vars element, in
// order) so -dump-stages and tools can show resolved types without
// re-checking.
type Symbol struct {
	Name string
	// Kind is the object class: "var", "func", "const", "type", "package",
	// "builtin", "label", or "unresolved" when the checker could not bind
	// the name.
	Kind string
	// Type is the object's type string when known ("" otherwise).
	Type string
}

// String renders "name kind type" for stage dumps.
func (s Symbol) String() string {
	out := s.Name + " " + s.Kind
	if s.Type != "" {
		out += " " + s.Type
	}
	return out
}

// DataSharingClause is a clause of the list shape (the data-sharing clauses
// and is_device_ptr): Kind names it and Vars is its variable list.
type DataSharingClause struct {
	span
	Kind ClauseKind
	Vars []string
	// Syms carries the sema resolution of Vars (nil until a sema pass ran).
	Syms []Symbol
}

// ClauseKind implements Clause.
func (c *DataSharingClause) ClauseKind() ClauseKind { return c.Kind }

// String renders "kind(v1,v2)".
func (c *DataSharingClause) String() string {
	return fmt.Sprintf("%s(%s)", c.Kind, strings.Join(c.Vars, ","))
}

// ReductionClause is reduction(Op:Vars); Op is the operator spelling
// ("+", "max", ...).
type ReductionClause struct {
	span
	Op   string
	Vars []string
	// Syms carries the sema resolution of Vars (nil until a sema pass ran).
	Syms []Symbol
}

// ClauseKind implements Clause.
func (c *ReductionClause) ClauseKind() ClauseKind { return ClauseReduction }

// String renders "reduction(op:v1,v2)".
func (c *ReductionClause) String() string {
	return fmt.Sprintf("reduction(%s:%s)", c.Op, strings.Join(c.Vars, ","))
}

// ScheduleModifier is the ordering modifier of a schedule clause.
type ScheduleModifier int

const (
	// ModifierNone means no modifier was written.
	ModifierNone ScheduleModifier = iota
	// ModifierMonotonic is monotonic: — each thread's chunks must be in
	// increasing logical iteration order.
	ModifierMonotonic
	// ModifierNonmonotonic is nonmonotonic: — chunks may execute in any
	// order, which licenses the work-stealing scheduler for dynamic.
	ModifierNonmonotonic
)

// String returns the clause spelling of the modifier ("" for none).
func (m ScheduleModifier) String() string { return spelling(scheduleModifiers, int(m), "") }

// ScheduleClause is schedule([Modifier:]Kind[,Chunk]); Chunk is the raw
// chunk expression text, empty when unspecified.
type ScheduleClause struct {
	span
	Modifier ScheduleModifier
	Kind     ScheduleKind
	Chunk    string
}

// ClauseKind implements Clause.
func (c *ScheduleClause) ClauseKind() ClauseKind { return ClauseSchedule }

// String renders "schedule([modifier:]kind[,chunk])".
func (c *ScheduleClause) String() string {
	kind := c.Kind.String()
	if c.Modifier != ModifierNone {
		kind = c.Modifier.String() + ":" + kind
	}
	if c.Chunk != "" {
		return fmt.Sprintf("schedule(%s,%s)", kind, c.Chunk)
	}
	return fmt.Sprintf("schedule(%s)", kind)
}

// ExprClause is a clause of the expression shape: Text is the expression
// source (the preprocessor runs before type checking, so it stays text).
type ExprClause struct {
	span
	Kind ClauseKind
	Text string
}

// ClauseKind implements Clause.
func (c *ExprClause) ClauseKind() ClauseKind { return c.Kind }

// String renders "kind(expr)".
func (c *ExprClause) String() string { return fmt.Sprintf("%s(%s)", c.Kind, c.Text) }

// CollapseClause is collapse(N).
type CollapseClause struct {
	span
	N int
}

// ClauseKind implements Clause.
func (c *CollapseClause) ClauseKind() ClauseKind { return ClauseCollapse }

// String renders "collapse(n)".
func (c *CollapseClause) String() string { return fmt.Sprintf("collapse(%d)", c.N) }

// OrderedClause is the ordered clause on a loop directive: plain `ordered`
// (N == 0) enables in-iteration-order regions via the ordered construct;
// `ordered(n)` (N >= 1) declares a doacross loop over the n-deep perfectly
// nested loop nest, whose iterations synchronise through the standalone
// `ordered depend(sink: vec)` / `ordered depend(source)` forms.
type OrderedClause struct {
	span
	N int
}

// ClauseKind implements Clause.
func (c *OrderedClause) ClauseKind() ClauseKind { return ClauseOrdered }

// String renders "ordered" or "ordered(n)".
func (c *OrderedClause) String() string {
	if c.N > 0 {
		return fmt.Sprintf("ordered(%d)", c.N)
	}
	return "ordered"
}

// FlagClause is a clause of the flag shape, which has no payload.
type FlagClause struct {
	span
	Kind ClauseKind
}

// ClauseKind implements Clause.
func (c *FlagClause) ClauseKind() ClauseKind { return c.Kind }

// String renders the bare keyword.
func (c *FlagClause) String() string { return c.Kind.String() }

// NameClause is the parenthesised name of a critical section, or the
// construct-type word of cancel / cancellation point.
type NameClause struct {
	span
	Name string
}

// ClauseKind implements Clause.
func (c *NameClause) ClauseKind() ClauseKind { return ClauseName }

// String renders "(name)" (the critical spelling; Directive.String prints
// the cancel construct-type bare).
func (c *NameClause) String() string { return "(" + c.Name + ")" }

// DefaultClause is default(Mode).
type DefaultClause struct {
	span
	Mode DefaultMode
}

// ClauseKind implements Clause.
func (c *DefaultClause) ClauseKind() ClauseKind { return ClauseDefault }

// String renders "default(mode)".
func (c *DefaultClause) String() string { return fmt.Sprintf("default(%s)", c.Mode) }

// ProcBindClause is proc_bind(Policy); Policy is the accepted spelling
// (master/primary/close/spread/true/false). The runtime cannot pin
// goroutines, so the clause is accepted and ignored.
type ProcBindClause struct {
	span
	Policy string
}

// ClauseKind implements Clause.
func (c *ProcBindClause) ClauseKind() ClauseKind { return ClauseProcBind }

// String renders "proc_bind(policy)".
func (c *ProcBindClause) String() string { return fmt.Sprintf("proc_bind(%s)", c.Policy) }

// DepMode is the dependence type of a depend clause.
type DepMode int

const (
	// DependIn, DependOut and DependInOut are the task dependence types.
	DependIn DepMode = iota
	DependOut
	DependInOut
	// DependSink is depend(sink: vec) on the standalone ordered directive:
	// wait for the doacross iteration the vector names. The list is one
	// iteration vector, not independent items.
	DependSink
	// DependSource is depend(source) on the standalone ordered directive:
	// post the current doacross iteration's finished flag.
	DependSource
)

// String returns the clause spelling of the mode.
func (m DepMode) String() string { return spelling(depModes, int(m), "in") }

// IsDoacross reports whether the mode is one of the doacross dependence
// types (sink/source), legal only on the standalone ordered directive.
func (m DepMode) IsDoacross() bool { return m == DependSink || m == DependSource }

// DependClause is depend(Mode: Vars); Vars are the dependence list items
// (identifiers, optionally with index suffixes like a[i]). For DependSink,
// Vars are the components of one iteration vector (expressions like "i-1");
// for DependSource, Vars is empty.
type DependClause struct {
	span
	Mode DepMode
	Vars []string
	// Syms carries the sema resolution of Vars (nil until a sema pass ran).
	Syms []Symbol
}

// ClauseKind implements Clause.
func (c *DependClause) ClauseKind() ClauseKind { return ClauseDepend }

// String renders "depend(mode: v1,v2)" ("depend(source)" has no list).
func (c *DependClause) String() string {
	if c.Mode == DependSource {
		return "depend(source)"
	}
	return fmt.Sprintf("depend(%s: %s)", c.Mode, strings.Join(c.Vars, ","))
}

// MapType is the map-type of a map clause, deciding the transfers at
// data-environment entry and exit.
type MapType int

const (
	// MapToFrom is map(tofrom: list) — both directions; the default when no
	// map-type is written.
	MapToFrom MapType = iota
	// MapTo is map(to: list) — host→device at entry only.
	MapTo
	// MapFrom is map(from: list) — device→host at exit only.
	MapFrom
	// MapAlloc is map(alloc: list) — allocate, no transfers.
	MapAlloc
	// MapRelease is map(release: list) — drop a reference, no transfer
	// (target exit data only).
	MapRelease
	// MapDelete is map(delete: list) — force removal, no copy-back
	// (target exit data only).
	MapDelete
)

// String returns the map-type spelling.
func (t MapType) String() string { return spelling(mapTypes, int(t), "tofrom") }

// IsEnterType reports whether the map-type is legal on target enter data.
func (t MapType) IsEnterType() bool { return t == MapTo || t == MapAlloc }

// IsExitType reports whether the map-type is legal on target exit data.
func (t MapType) IsExitType() bool { return t == MapFrom || t == MapRelease || t == MapDelete }

// MapClause is map([Type:] Vars) on a target construct.
type MapClause struct {
	span
	Type MapType
	Vars []string
	// Syms carries the sema resolution of Vars (nil until a sema pass ran).
	Syms []Symbol
}

// ClauseKind implements Clause.
func (c *MapClause) ClauseKind() ClauseKind { return ClauseMap }

// String renders "map(type: v1,v2)".
func (c *MapClause) String() string {
	return fmt.Sprintf("map(%s: %s)", c.Type, strings.Join(c.Vars, ","))
}

// MotionClause is to(Vars) or from(Vars) on target update; Kind is ClauseTo
// or ClauseFrom.
type MotionClause struct {
	span
	Kind ClauseKind
	Vars []string
	// Syms carries the sema resolution of Vars (nil until a sema pass ran).
	Syms []Symbol
}

// ClauseKind implements Clause.
func (c *MotionClause) ClauseKind() ClauseKind { return c.Kind }

// String renders "to(v1,v2)" / "from(v1,v2)".
func (c *MotionClause) String() string {
	return fmt.Sprintf("%s(%s)", c.Kind, strings.Join(c.Vars, ","))
}

// Directive is a fully parsed directive.
type Directive struct {
	Construct Construct
	Clauses   []Clause
	// Text is the original directive text (after the omp sentinel).
	Text string
	// Pos is the source position of the directive body's first byte; the
	// zero Pos when parsed without file context.
	Pos Pos
}

// Find returns the first clause of kind k and whether it exists.
func (d *Directive) Find(k ClauseKind) (Clause, bool) {
	for _, c := range d.Clauses {
		if c.ClauseKind() == k {
			return c, true
		}
	}
	return nil, false
}

// Has reports whether a clause of kind k is present (the accessor for the
// flag clauses).
func (d *Directive) Has(k ClauseKind) bool {
	_, ok := d.Find(k)
	return ok
}

// Schedule returns the schedule clause, if present.
func (d *Directive) Schedule() (*ScheduleClause, bool) {
	if c, ok := d.Find(ClauseSchedule); ok {
		return c.(*ScheduleClause), true
	}
	return nil, false
}

// clausesOf returns every clause of concrete type T in source order.
func clausesOf[T Clause](d *Directive) []T {
	var out []T
	for _, c := range d.Clauses {
		if t, ok := c.(T); ok {
			out = append(out, t)
		}
	}
	return out
}

// Reductions returns every reduction clause in source order.
func (d *Directive) Reductions() []*ReductionClause { return clausesOf[*ReductionClause](d) }

// DataSharing returns every data-sharing clause of kind k in source order.
func (d *Directive) DataSharing(k ClauseKind) []*DataSharingClause {
	var out []*DataSharingClause
	for _, ds := range clausesOf[*DataSharingClause](d) {
		if ds.Kind == k {
			out = append(out, ds)
		}
	}
	return out
}

// Depends returns every depend clause in source order.
func (d *Directive) Depends() []*DependClause { return clausesOf[*DependClause](d) }

// Maps returns every map clause in source order.
func (d *Directive) Maps() []*MapClause { return clausesOf[*MapClause](d) }

// Motions returns every to/from motion clause (target update) in source
// order.
func (d *Directive) Motions() []*MotionClause { return clausesOf[*MotionClause](d) }

// Vars flattens the variable lists of every data-sharing clause of kind k,
// in source order — the shape the lowering consumes.
func (d *Directive) Vars(k ClauseKind) []string {
	var out []string
	for _, c := range d.DataSharing(k) {
		out = append(out, c.Vars...)
	}
	return out
}

// Expr returns the expression text of a clause of the expression shape.
func (d *Directive) Expr(k ClauseKind) (string, bool) {
	if c, ok := d.Find(k); ok {
		if e, ok := c.(*ExprClause); ok {
			return e.Text, true
		}
	}
	return "", false
}

// Ordered returns the ordered clause's doacross depth and whether the
// clause is present: (0, true) is plain `ordered`, (n, true) with n >= 1 is
// the doacross form `ordered(n)`.
func (d *Directive) Ordered() (n int, ok bool) {
	if c, found := d.Find(ClauseOrdered); found {
		if oc, isOrdered := c.(*OrderedClause); isOrdered {
			return oc.N, true
		}
		return 0, true
	}
	return 0, false
}

// IsStandalone reports whether this directive instance has no associated
// statement. Beyond the always-standalone constructs, the ordered construct
// is standalone in its doacross forms (`ordered depend(sink: ...)` /
// `ordered depend(source)`) and block-associated otherwise.
func (d *Directive) IsStandalone() bool {
	if d.Construct == ConstructOrdered {
		return len(d.Depends()) > 0
	}
	return d.Construct.IsStandalone()
}

// Collapse returns the collapse depth, if the clause is present.
func (d *Directive) Collapse() (int, bool) {
	if c, ok := d.Find(ClauseCollapse); ok {
		return c.(*CollapseClause).N, true
	}
	return 0, false
}

// Name returns the critical-section name or cancel construct-type.
func (d *Directive) Name() (string, bool) {
	if c, ok := d.Find(ClauseName); ok {
		return c.(*NameClause).Name, true
	}
	return "", false
}

// String reconstructs a canonical spelling of the directive.
func (d *Directive) String() string {
	var b strings.Builder
	b.WriteString("omp ")
	b.WriteString(d.Construct.String())
	for _, c := range d.Clauses {
		b.WriteByte(' ')
		if n, ok := c.(*NameClause); ok &&
			(d.Construct == ConstructCancel || d.Construct == ConstructCancellationPoint) {
			// The construct-type of a cancel is a bare word.
			b.WriteString(n.Name)
			continue
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// Sentinels accepted before the directive body in a comment. The canonical
// form is "//omp parallel"; "//#omp" and "//$omp" (the Fortran-flavoured
// spelling the paper's comment syntax echoes) are also accepted.
var sentinels = []string{"omp", "#omp", "$omp"}

// DirectiveBody reports whether a Go comment's text (with the leading "//"
// already stripped) is an OpenMP directive. It returns the directive body
// after the sentinel and the byte offset of the body's first character
// within text, so callers can position diagnostics at real source columns.
// Like Go's own machine directives (//go:build), the sentinel must start
// immediately after the slashes — "// omp did X" prose is never a
// directive.
func DirectiveBody(text string) (body string, start int, ok bool) {
	for _, w := range sentinels {
		if text == w {
			return "", len(text), true
		}
		if strings.HasPrefix(text, w) && len(text) > len(w) &&
			(text[len(w)] == ' ' || text[len(w)] == '\t' || text[len(w)] == ':') {
			rest := text[len(w)+1:]
			trimmed := strings.TrimLeft(rest, " \t")
			start = len(w) + 1 + (len(rest) - len(trimmed))
			return strings.TrimRight(trimmed, " \t"), start, true
		}
	}
	return "", 0, false
}

// IsDirectiveComment is DirectiveBody without the offset, kept for callers
// that only need detection.
func IsDirectiveComment(text string) (string, bool) {
	body, _, ok := DirectiveBody(text)
	return body, ok
}
