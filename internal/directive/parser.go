package directive

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// parser scans a directive body, accumulating positioned diagnostics
// instead of stopping at the first problem: a malformed clause is reported,
// skipped, and parsing resumes at the next clause, so one pass over a
// directive surfaces every error in it.
type parser struct {
	src   string
	pos   int
	base  Pos // file position of src's first byte (zero when unknown)
	diags DiagnosticList
	// start and word locate the keyword of the clause being parsed, which
	// a bad argument's diagnostic points at.
	start int
	word  string
}

// errorf records a diagnostic for the byte range [start, start+length) of
// the body, clamped so positions always land inside (or one past) the body.
func (p *parser) errorf(kind DiagKind, start, length int, format string, args ...any) {
	start = min(max(start, 0), len(p.src))
	length = max(1, min(length, len(p.src)+1-start))
	file, line, col := p.base.absolute(start)
	p.diags = append(p.diags, &Diagnostic{
		File: file, Line: line, Col: col, Span: length,
		Kind: kind, Severity: SevError, Msg: fmt.Sprintf(format, args...),
	})
}

// badArg reports a malformed argument of the clause being parsed; a shape
// returns its result.
func (p *parser) badArg(format string, args ...any) (Clause, bool) {
	p.errorf(DiagBadClauseArg, p.start, len(p.word), format, args...)
	return nil, false
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) atEnd() bool {
	p.skipSpace()
	return p.pos >= len(p.src)
}

// peek reports whether the next non-blank byte is c.
func (p *parser) peek(c byte) bool {
	p.skipSpace()
	return p.pos < len(p.src) && p.src[p.pos] == c
}

// ident scans a lowercase identifier/keyword token.
func (p *parser) ident() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c >= '0' && c <= '9' {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

// skipParens advances from the '(' at p.pos past its balancing ')' and
// reports whether there was one; without it, p.pos ends at the body's end.
func (p *parser) skipParens() bool {
	depth := 0
	for ; p.pos < len(p.src); p.pos++ {
		switch p.src[p.pos] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				p.pos++
				return true
			}
		}
	}
	return false
}

// parenBody scans "( ... )" with balanced nesting and returns the inside.
// On failure it records a diagnostic attributed to clause and returns
// ok=false.
func (p *parser) parenBody(clause string) (string, bool) {
	if !p.peek('(') {
		p.errorf(DiagSyntax, p.pos, 1, "%s: expected '('", clause)
		return "", false
	}
	open := p.pos
	if !p.skipParens() {
		p.errorf(DiagSyntax, open, 1, "%s: unbalanced parentheses", clause)
		return "", false
	}
	return strings.TrimSpace(p.src[open+1 : p.pos-1]), true
}

// splitTop splits s on top-level (unparenthesised) occurrences of sep.
func splitTop(s string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	return parts
}

// ParseAt parses a directive body located at pos in its source file (the
// position of the body's first byte, as found by DirectiveBody; the zero
// Pos gives body-relative columns). It returns the directive — non-nil
// whenever the construct itself was recognised, even if some clauses were
// bad — together with every syntax and validation diagnostic, positioned at
// real file coordinates and sorted by position.
func ParseAt(body string, pos Pos) (*Directive, DiagnosticList) {
	p := &parser{src: body, base: pos}
	d := p.parseDirective()
	if d != nil {
		d.Pos = pos
		p.diags = append(p.diags, d.Validate()...)
	}
	p.diags.Sort()
	return d, p.diags
}

// spanSetter lets the parser stamp a clause's source range after building
// its payload; every concrete clause type gains it from the embedded span.
type spanSetter interface{ setSpan(start, length int) }

func (s *span) setSpan(start, length int) { *s = span{start, length} }

// parseDirective parses the construct word(s) and clause list. It returns
// nil only when no construct could be recognised.
func (p *parser) parseDirective() *Directive {
	d := &Directive{Text: strings.TrimSpace(p.src)}
	p.skipSpace()
	r, whole := p.construct()
	if r == nil {
		return nil
	}
	d.Construct = r.c
	if r.arg != nil {
		// Without the whole spelling the argument cannot be told from the
		// clauses, so the directive ends at the error.
		if !whole {
			return d
		}
		r.arg(p, d)
	}
	for !p.atEnd() {
		start := p.pos
		word := p.ident()
		if word == "" {
			r, width := utf8.DecodeRuneInString(p.src[p.pos:])
			p.errorf(DiagSyntax, p.pos, width, "unexpected character %q", r)
			p.pos += width // skip it and resume at the next clause
			continue
		}
		clause, ok := p.parseClause(start, word)
		if !ok {
			if p.peek('(') {
				p.skipParens()
			}
			continue
		}
		clause.(spanSetter).setSpan(start, p.pos-start)
		d.Clauses = append(d.Clauses, clause)
	}
	return d
}

// construct matches the construct table's spellings, in table order,
// against the words at p.pos and leaves p after the matched words. whole is
// false when a row's committing prefix matched but the rest of its spelling
// did not; that is reported, and the row is still the construct.
func (p *parser) construct() (row *constructRow, whole bool) {
	start := p.pos
	first := p.ident()
	next := p.pos
rows:
	for i := range constructs {
		r := &constructs[i]
		if !strings.HasPrefix(r.spelling, first) {
			continue
		}
		want, rest, _ := strings.Cut(r.spelling, " ")
		if want != first {
			continue
		}
		p.pos = next
		for n := 1; rest != ""; n++ {
			want, rest, _ = strings.Cut(rest, " ")
			p.skipSpace()
			wstart := p.pos
			if got := p.ident(); got != want {
				if n < r.prefix || r.prefix == 0 {
					continue rows
				}
				p.partial(r, start, wstart, n, got)
				return r, false
			}
		}
		return r, true
	}
	if first != "" {
		p.errorf(DiagUnknownConstruct, start, len(first), "unknown construct %q", first)
	} else {
		p.errorf(DiagSyntax, start, 1, "empty directive")
	}
	return nil, false
}

// partial reports a spelling that follows r's committing prefix but read
// got, at wstart, in place of its word n. A row with one word after its
// prefix names what was expected; a longer one says that only the combined
// spelling is supported. When got is a clause keyword the words are missing
// and the clauses have begun, so p goes back to got for the clause loop;
// otherwise the remaining words of r are consumed.
func (p *parser) partial(r *constructRow, start, wstart, n int, got string) {
	words := strings.Fields(r.spelling)
	clause := clauseNamed(got) != nil
	if !clause {
		for range words[n+1:] {
			p.ident()
		}
	}
	lead := strings.Join(words[:r.prefix], " ")
	if len(words) == r.prefix+1 {
		p.errorf(DiagSyntax, wstart, max(len(got), 1), "expected '%s', got '%s %s'", r.spelling, lead, got)
	} else {
		from := start + len(words[0])
		p.errorf(DiagSyntax, from, p.pos-from, "after '%s' only the combined '%s' is supported", lead, r.spelling)
	}
	if clause {
		p.pos = wstart
	}
}

// criticalName parses critical's optional "(name)".
func (p *parser) criticalName(d *Directive) {
	if !p.peek('(') {
		return
	}
	start := p.pos
	if name, ok := p.parenBody("critical"); ok {
		d.Clauses = append(d.Clauses, &NameClause{span{start, p.pos - start}, name})
	}
}

// atomicForm skips atomic's optional form word: every form is lowered at
// update strength.
func (p *parser) atomicForm(*Directive) {
	save := p.pos
	if !hasWord(atomicForms, p.ident()) {
		p.pos = save
	}
}

// flushList skips flush's optional list: Go's memory model makes the
// runtime's synchronisation do the flushing.
func (p *parser) flushList(*Directive) {
	if p.peek('(') {
		p.parenBody("flush")
	}
}

// cancelType parses the construct type of cancel and cancellation point.
// A clause keyword in its place means the type is missing; the word is
// left for the clause loop.
func (p *parser) cancelType(d *Directive) {
	p.skipSpace()
	start := p.pos
	word := p.ident()
	if !hasWord(cancelTypes, word) {
		p.errorf(DiagSyntax, start, max(len(word), 1), "%s: unknown construct type %q", d.Construct, word)
		if clauseNamed(word) != nil {
			p.pos = start
		}
		return
	}
	d.Clauses = append(d.Clauses, &NameClause{span{start, p.pos - start}, word})
}

// clauseNamed returns the row of the clause keyword word, nil if word is
// not one.
func clauseNamed(word string) *clauseRow {
	for i := range clauses {
		if r := &clauses[i]; r.name == word && r.parse != nil {
			return r
		}
	}
	return nil
}

// parseClause parses one clause beginning with keyword word at byte offset
// start. On failure the diagnostic has already been recorded.
func (p *parser) parseClause(start int, word string) (Clause, bool) {
	if r := clauseNamed(word); r != nil {
		p.start, p.word = start, word
		return r.parse(p, r.kind)
	}
	p.errorf(DiagUnknownClause, start, len(word), "unknown clause %q", word)
	return nil, false
}

// names splits list on top-level commas into variable names.
func (p *parser) names(list string) ([]string, bool) {
	vars := splitTop(list, ',')
	for _, v := range vars {
		if !isIdent(v) {
			p.badArg("%s: %q is not a variable name", p.word, v)
			return nil, false
		}
	}
	return vars, true
}

// varList parses "(v1, v2, ...)".
func (p *parser) varList() ([]string, bool) {
	body, ok := p.parenBody(p.word)
	if !ok {
		return nil, false
	}
	return p.names(body)
}

// list parses a data-sharing clause or is_device_ptr: "(v1, v2, ...)". Like
// every shape, its clause is used only when ok.
func (p *parser) list(k ClauseKind) (Clause, bool) {
	vars, ok := p.varList()
	return &DataSharingClause{Kind: k, Vars: vars}, ok
}

// motion parses target update's to and from: "(v1, v2, ...)".
func (p *parser) motion(k ClauseKind) (Clause, bool) {
	vars, ok := p.varList()
	return &MotionClause{Kind: k, Vars: vars}, ok
}

// expr parses "(expr)", kept as opaque text: the preprocessor runs before
// type checking.
func (p *parser) expr(k ClauseKind) (Clause, bool) {
	body, ok := p.parenBody(p.word)
	if !ok {
		return nil, false
	}
	if body == "" {
		return p.badArg("%s: empty expression", p.word)
	}
	return &ExprClause{Kind: k, Text: body}, true
}

// flag parses a clause without an argument.
func (p *parser) flag(k ClauseKind) (Clause, bool) { return &FlagClause{Kind: k}, true }

// integer parses "(n)" with n a positive integer: collapse's depth, or the
// doacross depth of ordered, whose bare form enables in-order regions.
func (p *parser) integer(k ClauseKind) (Clause, bool) {
	n := 0
	if k != ClauseOrdered || p.peek('(') {
		body, ok := p.parenBody(p.word)
		if !ok {
			return nil, false
		}
		var err error
		if n, err = strconv.Atoi(strings.TrimSpace(body)); err != nil || n < 1 {
			return p.badArg("%s: want a positive integer, got %q", p.word, body)
		}
	}
	if k == ClauseOrdered {
		return &OrderedClause{N: n}, true
	}
	return &CollapseClause{N: n}, true
}

// defaultMode parses "(shared|none)".
func (p *parser) defaultMode(ClauseKind) (Clause, bool) {
	body, ok := p.parenBody(p.word)
	if !ok {
		return nil, false
	}
	m := slices.Index(defaultModes, body)
	if m < 0 {
		return p.badArg("default: want %s, got %q", oneOf(defaultModes), body)
	}
	return &DefaultClause{Mode: DefaultMode(m)}, true
}

// procBind parses "(policy)".
func (p *parser) procBind(ClauseKind) (Clause, bool) {
	body, ok := p.parenBody(p.word)
	if !ok {
		return nil, false
	}
	if !hasWord(procBindPolicies, body) {
		return p.badArg("proc_bind: unknown kind %q", body)
	}
	return &ProcBindClause{Policy: body}, true
}

// reduction parses "(op: v1, v2, ...)".
func (p *parser) reduction(ClauseKind) (Clause, bool) {
	body, ok := p.parenBody(p.word)
	if !ok {
		return nil, false
	}
	op, list, found := strings.Cut(body, ":")
	if !found {
		return p.badArg("reduction: missing ':' in %q", body)
	}
	op = strings.TrimSpace(op)
	if !hasWord(reductionOps, op) {
		return p.badArg("reduction: unknown operator %q", op)
	}
	vars, ok := p.names(list)
	if !ok {
		return nil, false
	}
	return &ReductionClause{Op: op, Vars: vars}, true
}

// schedule parses "([modifier:]kind[, chunk])".
func (p *parser) schedule(ClauseKind) (Clause, bool) {
	body, ok := p.parenBody(p.word)
	if !ok {
		return nil, false
	}
	parts := splitTop(body, ',')
	c := &ScheduleClause{}
	kind := parts[0]
	if mod, rest, found := strings.Cut(kind, ":"); found {
		mod = strings.TrimSpace(mod)
		m := slices.Index(scheduleModifiers, mod)
		if m <= int(ModifierNone) {
			return p.badArg("schedule: unknown modifier %q (want %s)", mod, oneOf(scheduleModifiers[1:]))
		}
		c.Modifier, kind = ScheduleModifier(m), strings.TrimSpace(rest)
	}
	k := slices.Index(scheduleKinds, kind)
	if k < 0 {
		return p.badArg("schedule: unknown kind %q", kind)
	}
	c.Kind = ScheduleKind(k)
	if c.Modifier == ModifierNonmonotonic && c.Kind != SchedDynamic && c.Kind != SchedGuided {
		return p.badArg("schedule: the nonmonotonic modifier requires a dynamic or guided kind, not %q", kind)
	}
	if len(parts) > 1 {
		c.Chunk = parts[1]
		if c.Chunk == "" {
			return p.badArg("schedule: empty chunk expression")
		}
	}
	if len(parts) > 2 {
		return p.badArg("schedule: too many arguments")
	}
	return c, true
}

// mapClause parses "([map-type:] v1, v2, ...)".
func (p *parser) mapClause(ClauseKind) (Clause, bool) {
	body, ok := p.parenBody(p.word)
	if !ok {
		return nil, false
	}
	c := &MapClause{}
	if t, rest, found := strings.Cut(body, ":"); found {
		t = strings.TrimSpace(t)
		m := slices.Index(mapTypes, t)
		if m < 0 {
			return p.badArg("map: unknown map-type %q (want %s)", t, oneOf(mapTypes))
		}
		c.Type, body = MapType(m), rest
	}
	if c.Vars, ok = p.names(body); !ok {
		return nil, false
	}
	return c, true
}

// depend parses "(in|out|inout: list)", "(sink: vec)" or "(source)".
func (p *parser) depend(ClauseKind) (Clause, bool) {
	body, ok := p.parenBody(p.word)
	if !ok {
		return nil, false
	}
	if body == depModes[DependSource] {
		// The doacross post form has no list.
		return &DependClause{Mode: DependSource}, true
	}
	modText, list, found := strings.Cut(body, ":")
	if !found {
		return p.badArg("depend: missing dependence type (want depend(in|out|inout: list), depend(sink: vec) or depend(source))")
	}
	modText = strings.TrimSpace(modText)
	m := slices.Index(depModes, modText)
	if m < 0 || DepMode(m) == DependSource {
		return p.badArg("depend: unknown dependence type %q (want %s)", modText, oneOf(depModes))
	}
	c := &DependClause{Mode: DepMode(m), Vars: splitTop(list, ',')}
	for _, v := range c.Vars {
		// A sink list is one iteration vector of index expressions (i-1,
		// j, ...), kept as opaque text like every expression here.
		if c.Mode == DependSink && v == "" {
			return p.badArg("depend(sink): empty iteration-vector component")
		}
		if c.Mode != DependSink && !isDependItem(v) {
			return p.badArg("depend: %q is not a dependence list item", v)
		}
	}
	return c, true
}

// isDependItem reports whether s is a well-formed dependence list item: an
// identifier optionally followed by balanced index suffixes ("x", "a[i]",
// "m[i][j+1]"). The preprocessor runs before type checking, so index
// expressions stay opaque text.
func isDependItem(s string) bool {
	i := strings.IndexByte(s, '[')
	if i < 0 {
		return isIdent(s)
	}
	depth := 0
	for _, c := range []byte(s[i:]) {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			return false
		}
	}
	return depth == 0 && isIdent(s[:i])
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Validate checks the directive against the clause-compatibility rules of
// OpenMP 5.2 (clause/construct legality, uniqueness, data-sharing class
// conflicts, implementation limits) and returns every violation as a
// positioned diagnostic. ParseAt calls it automatically; it is
// exported so a programmatically built Directive can be checked too.
func (d *Directive) Validate() DiagnosticList {
	var diags DiagnosticList
	addAt := func(c Clause, kind DiagKind, format string, args ...any) {
		start, length := 0, max(len(d.Text), 1)
		if c != nil {
			start, length = c.Span()
			length = max(length, 1)
		}
		file, line, col := d.Pos.absolute(start)
		diags = append(diags, &Diagnostic{
			File: file, Line: line, Col: col, Span: length,
			Kind: kind, Severity: SevError, Msg: fmt.Sprintf(format, args...),
		})
	}

	allowed := ""
	if r := constructRowOf(d.Construct); r != nil {
		allowed = r.clauses
	}
	seen := map[ClauseKind]int{}
	varClass := map[string]ClauseKind{}
	checkVars := func(c Clause, kind ClauseKind, vars []string) {
		// A variable may appear in at most one data-sharing class.
		for _, v := range vars {
			if prev, ok := varClass[v]; ok && prev != kind {
				addAt(c, DiagConflictingClauses,
					"variable %q appears in both %q and %q", v, prev, kind)
				continue
			}
			varClass[v] = kind
		}
	}
	for _, c := range d.Clauses {
		k := c.ClauseKind()
		if !hasWord(allowed, k.String()) {
			addAt(c, DiagClauseNotAllowed, "clause %q is not valid on %q", k, d.Construct)
		}
		seen[k]++
		if r := clauseRowOf(k); r != nil && r.once && seen[k] > 1 {
			addAt(c, DiagDuplicateClause, "clause %q may appear at most once", k)
		}
		switch cc := c.(type) {
		case *DataSharingClause:
			if cc.Kind != ClauseCopyprivate {
				checkVars(c, cc.Kind, cc.Vars)
			}
		case *ReductionClause:
			checkVars(c, ClauseReduction, cc.Vars)
		}
		// Bitwise reductions on booleans / floats are caught at Go
		// compile time; here we enforce spec-level rules only.
	}
	if c, ok := d.Find(ClauseOrdered); ok && d.Has(ClauseNowait) {
		addAt(c, DiagConflictingClauses, "ordered and nowait are mutually exclusive")
	}
	if c, ok := d.Find(ClauseNumTasks); ok && d.Has(ClauseGrainsize) {
		addAt(c, DiagConflictingClauses, "grainsize and num_tasks are mutually exclusive")
	}
	// A dependence list item may appear in only one depend clause of the
	// directive (conflicting dependence types on one item are meaningless;
	// duplicates within one clause are redundant at best). Doacross
	// clauses are exempt: a sink list is one iteration vector whose
	// components (expressions, not storage items) may legitimately repeat
	// across sink clauses.
	seenDep := map[string]bool{}
	for _, dc := range d.Depends() {
		if dc.Mode.IsDoacross() {
			continue
		}
		for _, v := range dc.Vars {
			if seenDep[v] {
				addAt(dc, DiagConflictingClauses,
					"dependence item %q appears more than once in depend clauses", v)
				continue
			}
			seenDep[v] = true
		}
	}
	// Doacross dependence types belong to the standalone ordered directive
	// and the task dependence types to task-generating constructs; an
	// ordered directive mixes source with sink (post and wait are distinct
	// directives) or repeats source to no meaning.
	sawSource, sawSink := false, false
	for _, dc := range d.Depends() {
		switch {
		case dc.Mode.IsDoacross() && d.Construct != ConstructOrdered:
			addAt(dc, DiagClauseNotAllowed,
				"depend(%s) is only valid on the standalone %q directive", dc.Mode, ConstructOrdered)
		case !dc.Mode.IsDoacross() && d.Construct == ConstructOrdered:
			addAt(dc, DiagClauseNotAllowed,
				"depend(%s) is not valid on %q: the ordered directive takes depend(sink: vec) or depend(source)", dc.Mode, d.Construct)
		case dc.Mode == DependSource:
			if sawSource {
				addAt(dc, DiagDuplicateClause, "depend(source) may appear at most once")
			}
			sawSource = true
		case dc.Mode == DependSink:
			sawSink = true
		}
	}
	if sawSource && sawSink {
		c, _ := d.Find(ClauseDepend)
		addAt(c, DiagConflictingClauses,
			"depend(source) and depend(sink) may not appear on the same ordered directive")
	}
	// ordered(n) flattens the n-deep nest exactly as collapse(n) does; a
	// different collapse parameter would leave the two clauses fighting
	// over the nest depth.
	if n, ok := d.Ordered(); ok && n >= 1 {
		if m, has := d.Collapse(); has && m != n {
			c, _ := d.Find(ClauseOrdered)
			addAt(c, DiagConflictingClauses,
				"ordered(%d) and collapse(%d) parameters must match", n, m)
		}
	}
	// The ordered clause pins each thread to increasing iteration order,
	// which is exactly what nonmonotonic relaxes (OpenMP 5.2: a schedule
	// with the nonmonotonic modifier must not appear with ordered).
	if c, ok := d.Schedule(); ok && c.Modifier == ModifierNonmonotonic && d.Has(ClauseOrdered) {
		addAt(c, DiagConflictingClauses,
			"schedule modifier \"nonmonotonic\" and the ordered clause are mutually exclusive")
	}
	// Target-family rules: each list item has one map-type (a repeat across
	// map clauses either conflicts or is redundant), is_device_ptr items are
	// already device addresses and must not also be mapped, the unstructured
	// data constructs take only their direction's map-types, and the data
	// motion constructs need something to move.
	mapped := map[string]*MapClause{}
	for _, mc := range d.Maps() {
		for _, v := range mc.Vars {
			if prev, ok := mapped[v]; ok {
				if prev.Type != mc.Type {
					addAt(mc, DiagConflictingClauses,
						"variable %q mapped as both %q and %q", v, prev.Type, mc.Type)
				} else {
					addAt(mc, DiagDuplicateClause,
						"variable %q appears in more than one map clause", v)
				}
				continue
			}
			mapped[v] = mc
		}
		switch {
		case d.Construct == ConstructTargetEnterData && !mc.Type.IsEnterType():
			addAt(mc, DiagConflictingClauses,
				"map(%s) is not valid on %q: enter maps must be to or alloc", mc.Type, d.Construct)
		case d.Construct == ConstructTargetExitData && !mc.Type.IsExitType():
			addAt(mc, DiagConflictingClauses,
				"map(%s) is not valid on %q: exit maps must be from, release or delete", mc.Type, d.Construct)
		case d.Construct != ConstructTargetExitData && (mc.Type == MapRelease || mc.Type == MapDelete):
			addAt(mc, DiagConflictingClauses,
				"map(%s) is only valid on %q", mc.Type, ConstructTargetExitData)
		}
	}
	for _, ds := range d.DataSharing(ClauseIsDevicePtr) {
		for _, v := range ds.Vars {
			if _, ok := mapped[v]; ok {
				addAt(ds, DiagConflictingClauses,
					"variable %q appears in both %q and %q", v, ClauseMap, ClauseIsDevicePtr)
			}
		}
	}
	switch d.Construct {
	case ConstructTargetData, ConstructTargetEnterData, ConstructTargetExitData:
		if len(d.Maps()) == 0 {
			addAt(nil, DiagConflictingClauses, "%q requires at least one map clause", d.Construct)
		}
	}
	if d.Construct == ConstructTargetUpdate && len(d.Motions()) == 0 {
		addAt(nil, DiagConflictingClauses,
			"%q requires at least one to(...) or from(...) clause", d.Construct)
	}
	if c, ok := d.Find(ClauseDevice); ok {
		if e, isExpr := c.(*ExprClause); isExpr {
			if n, err := strconv.Atoi(strings.TrimSpace(e.Text)); err == nil && n < 0 {
				addAt(c, DiagBadClauseArg, "device id out of range: %d", n)
			}
		}
	}
	return diags
}
