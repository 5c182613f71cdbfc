package transform

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/directive"
)

// gen carries the state for lowering one directive site. It holds the
// syntax and the edits of the inner sites only: the lowering reads no types,
// so its output does not depend on the sema mode.
type gen struct {
	opts  Options
	src   []byte
	fset  *token.FileSet
	sites []*site
	// threadOK is true when the generated code may reference the thread
	// variable introduced by an enclosing lowered construct.
	threadOK bool
	// rtOK is true when the generated code sits inside a target region's
	// kernel, whose __omp_rt parameter is the device runtime that parallel
	// constructs must fork on.
	rtOK bool
	// edits are the sites inside this one that are already lowered, in
	// source order; span reads each as its replacement.
	edits []*edit
	// copied records the source ranges the lowering read into its output
	// (see settle).
	copied [][2]int
}

// edit is one lowered site: the original bytes [start, end) read as repl.
type edit struct {
	site       *site
	start, end int
	repl       string
}

// stmts lists the top-level statements repl reads as: a flush lowers to
// none, a doacross ordered to one per depend clause (one a line), every
// other lowering to one.
func (e *edit) stmts() []string {
	switch {
	case e.repl == "":
		return nil
	case e.site.Dir.Construct == directive.ConstructOrdered && e.site.Stmt == nil:
		return strings.Split(e.repl, "\n")
	}
	return []string{e.repl}
}

// threadVar is the identifier lowered code uses for the Thread context. The
// double underscore keeps it out of gofmt'ed user namespaces.
const threadVar = "__omp_t"

func (g *gen) pkg() string { return g.opts.Package }

// text returns the source text of a node.
func (g *gen) text(n ast.Node) string {
	return g.span(g.fset.Position(n.Pos()).Offset, g.fset.Position(n.End()).Offset)
}

// span returns the source between byte offsets as the rewritten file reads
// it: each lowered site inside the range reads as its replacement.
func (g *gen) span(start, end int) string {
	g.copied = append(g.copied, [2]int{start, end})
	if len(g.edits) == 0 {
		return string(g.src[start:end])
	}
	var b strings.Builder
	at := start
	for _, e := range g.edits {
		if start <= e.start && e.end <= end {
			b.Write(g.src[at:e.start])
			b.WriteString(e.repl)
			at = e.end
		}
	}
	b.Write(g.src[at:end])
	return b.String()
}

// carried reports whether the lowering read [start, end) whole.
func (g *gen) carried(start, end int) bool {
	for _, r := range g.copied {
		if r[0] <= start && end <= r[1] {
			return true
		}
	}
	return false
}

// settle checks, after s is lowered, that every inner lowering made it into
// the output whole: one the outer lowering read only in part or not at all
// (a directive in a loop header, or one whose statement runs past the end
// of s's statement) would otherwise be lost. It then drops the section
// markers inside s that its lowering did not carry.
func (g *gen) settle(s *site) error {
	for _, e := range g.edits {
		if e.repl != "" && !g.carried(e.start, e.end) {
			return e.site.diag(directive.DiagBadNesting,
				"%q at this position is lost when the enclosing %q is lowered: move it into that construct's body",
				e.site.Dir.Construct, s.Dir.Construct)
		}
	}
	for _, m := range g.sites {
		if m.Dir.Construct == directive.ConstructSection && !m.dropped &&
			s.commentStart < m.commentStart && m.commentStart < s.end() {
			m.dropped = !g.carried(m.commentStart, m.commentEnd)
		}
	}
	return nil
}

// blockStmt is one top-level statement of a block as the rewritten source
// reads it: an original statement, or one an inner lowering emitted.
type blockStmt struct {
	start int
	node  ast.Stmt // nil for a lowering's statement
	text  string   // the lowering's statement (node == nil)
}

// stmts lists a block's top-level statements as a parse of the rewritten
// source would: a statement under a lowered directive reads as what the
// directive lowered to, and so does a lowered standalone directive. A
// listed lowering counts as read (see settle); soleStmt's caller fails on
// any block that lists one with statements.
func (g *gen) stmts(block *ast.BlockStmt) []blockStmt {
	lbrace := g.fset.Position(block.Lbrace).Offset
	rbrace := g.fset.Position(block.Rbrace).Offset
	var es []*edit
	for _, e := range g.edits {
		if lbrace < e.start && e.end <= rbrace {
			es = append(es, e)
		}
	}
	var out []blockStmt
	lowered := func(e *edit) {
		g.copied = append(g.copied, [2]int{e.start, e.end})
		for _, t := range e.stmts() {
			out = append(out, blockStmt{start: e.start, text: t})
		}
	}
	for _, st := range block.List {
		start := g.fset.Position(st.Pos()).Offset
		end := g.fset.Position(st.End()).Offset
		for len(es) > 0 && es[0].end <= start {
			lowered(es[0]) // a standalone directive before st
			es = es[1:]
		}
		if len(es) > 0 && es[0].start < start {
			lowered(es[0]) // st's own directive
			es = es[1:]
			continue
		}
		for len(es) > 0 && es[0].end <= end {
			es = es[1:] // inside st: text(st) applies it
		}
		out = append(out, blockStmt{start: start, node: st})
	}
	for _, e := range es {
		lowered(e)
	}
	return out
}

// lower produces the replacement text for the site and the byte span it
// replaces.
func (g *gen) lower(s *site) (repl string, start, end int, err error) {
	start, end = s.commentStart, s.end()
	switch s.Dir.Construct {
	case directive.ConstructBarrier:
		repl, err = g.requireThread(s, threadVar+".Barrier()")
	case directive.ConstructTaskwait:
		repl, err = g.requireThread(s, threadVar+".Taskwait()")
	case directive.ConstructFlush:
		// The runtime's synchronisation constructs order memory under
		// the Go memory model; a standalone flush erases to nothing.
		repl = ""
	case directive.ConstructTaskyield:
		repl, err = g.requireThread(s, threadVar+".Taskyield()")
	case directive.ConstructCancel:
		code := threadVar + ".Cancel()"
		if cond, ok := s.Dir.Expr(directive.ClauseIf); ok {
			code = "if " + cond + " {\n" + code + "\n}"
		}
		repl, err = g.requireThread(s, code)
	case directive.ConstructCancellationPoint:
		// A cancellation point returns from the innermost construct's
		// body when cancellation is pending; inside our lowered
		// closures a plain return does exactly that.
		repl, err = g.requireThread(s, "if "+threadVar+".CancellationPoint() {\nreturn\n}")
	case directive.ConstructParallel:
		repl, err = g.lowerParallel(s)
	case directive.ConstructParallelFor:
		repl, err = g.lowerParallelFor(s)
	case directive.ConstructFor:
		repl, err = g.lowerFor(s, threadVar)
	case directive.ConstructParallelSections:
		repl, err = g.lowerParallelSections(s)
	case directive.ConstructSections:
		repl, err = g.lowerSections(s, threadVar)
	case directive.ConstructSingle:
		repl, err = g.lowerSingle(s)
	case directive.ConstructMaster:
		repl, err = g.requireThread(s, fmt.Sprintf("%s.Master(func() %s)", threadVar, g.blockText(s.Stmt)))
	case directive.ConstructCritical:
		repl = g.lowerCritical(s)
	case directive.ConstructAtomic:
		repl = g.lowerAtomic(s)
	case directive.ConstructOrdered:
		repl, err = g.lowerOrdered(s)
	case directive.ConstructTask:
		repl, err = g.lowerTask(s)
	case directive.ConstructTaskgroup:
		repl, err = g.requireThread(s, fmt.Sprintf("%s.Taskgroup(func() %s)", threadVar, g.blockText(s.Stmt)))
	case directive.ConstructTaskloop:
		repl, err = g.lowerTaskloop(s)
	case directive.ConstructTarget:
		repl, err = g.lowerTarget(s)
	case directive.ConstructTargetData:
		repl, err = g.lowerTargetData(s)
	case directive.ConstructTargetEnterData, directive.ConstructTargetExitData:
		repl, err = g.lowerTargetEnterExit(s)
	case directive.ConstructTargetUpdate:
		repl, err = g.lowerTargetUpdate(s)
	case directive.ConstructTargetTeamsDistributeParallelFor:
		repl, err = g.lowerTargetTeamsFor(s)
	default:
		err = s.diag(directive.DiagUnsupported, "construct %q cannot be lowered here", s.Dir.Construct)
	}
	return repl, start, end, err
}

// requireThread guards lowerings that need an enclosing thread context.
func (g *gen) requireThread(s *site, code string) (string, error) {
	if !g.threadOK {
		return "", s.diag(directive.DiagBadNesting,
			"%q must be nested inside a parallel (or task) directive: no thread context in scope", s.Dir.Construct)
	}
	return code, nil
}

// blockText renders a statement as a block body "{ ... }".
func (g *gen) blockText(stmt ast.Stmt) string {
	if _, ok := stmt.(*ast.BlockStmt); ok {
		return g.text(stmt)
	}
	return "{\n" + g.text(stmt) + "\n}"
}

// bodyOf renders a statement's contents without enclosing braces.
func (g *gen) bodyOf(stmt ast.Stmt) string {
	if b, ok := stmt.(*ast.BlockStmt); ok {
		return g.span(g.fset.Position(b.Lbrace).Offset+1, g.fset.Position(b.Rbrace).Offset)
	}
	return g.text(stmt)
}

// --- data-sharing clause prologues ---

// privatePrologue emits shadow declarations for private/firstprivate vars.
func (g *gen) privatePrologue(d *directive.Directive) string {
	var b strings.Builder
	for _, v := range d.Vars(directive.ClausePrivate) {
		fmt.Fprintf(&b, "%s := %s.Zero(%s)\n_ = %s\n", v, g.pkg(), v, v)
	}
	for _, v := range d.Vars(directive.ClauseFirstprivate) {
		fmt.Fprintf(&b, "%s := %s\n_ = %s\n", v, v, v)
	}
	return b.String()
}

// identityExpr returns the Go expression initialising a private reduction
// accumulator for op, typed by the original variable v via generic helpers.
func (g *gen) identityExpr(op, v string) string {
	switch op {
	case "+", "-", "|", "^":
		return fmt.Sprintf("%s.Zero(%s)", g.pkg(), v)
	case "*":
		return fmt.Sprintf("%s.One(%s)", g.pkg(), v)
	case "max":
		return fmt.Sprintf("%s.Smallest(%s)", g.pkg(), v)
	case "min":
		return fmt.Sprintf("%s.Largest(%s)", g.pkg(), v)
	case "&":
		return fmt.Sprintf("%s.AllOnes(%s)", g.pkg(), v)
	case "&&":
		return "true"
	case "||":
		return "false"
	default:
		return fmt.Sprintf("%s.Zero(%s)", g.pkg(), v)
	}
}

// combineStmt returns the statement merging private partial v into *ptr.
func combineStmt(op, ptr, v string) string {
	switch op {
	case "+", "-":
		return fmt.Sprintf("*%s += %s", ptr, v)
	case "*":
		return fmt.Sprintf("*%s *= %s", ptr, v)
	case "max":
		return fmt.Sprintf("if %s > *%s { *%s = %s }", v, ptr, ptr, v)
	case "min":
		return fmt.Sprintf("if %s < *%s { *%s = %s }", v, ptr, ptr, v)
	case "&":
		return fmt.Sprintf("*%s &= %s", ptr, v)
	case "|":
		return fmt.Sprintf("*%s |= %s", ptr, v)
	case "^":
		return fmt.Sprintf("*%s ^= %s", ptr, v)
	case "&&":
		return fmt.Sprintf("*%s = *%s && %s", ptr, ptr, v)
	case "||":
		return fmt.Sprintf("*%s = *%s || %s", ptr, ptr, v)
	default:
		return fmt.Sprintf("*%s += %s", ptr, v)
	}
}

// reductionVars flattens all reduction clauses to (op, var) pairs.
func reductionVars(d *directive.Directive) [][2]string {
	var out [][2]string
	for _, c := range d.Reductions() {
		for _, v := range c.Vars {
			out = append(out, [2]string{c.Op, v})
		}
	}
	return out
}

// reductionPrologue takes pointers to the originals and shadows each name
// with a private accumulator at the operator identity.
func (g *gen) reductionPrologue(d *directive.Directive) string {
	var b strings.Builder
	for _, rv := range reductionVars(d) {
		op, v := rv[0], rv[1]
		fmt.Fprintf(&b, "__omp_red_%s := &%s\n", v, v)
		fmt.Fprintf(&b, "%s := %s\n_ = %s\n", v, g.identityExpr(op, v), v)
	}
	return b.String()
}

// reductionEpilogue combines partials into the originals under a critical
// section, then (unless nowait) a barrier publishes the final value.
func (g *gen) reductionEpilogue(d *directive.Directive, tvar string, barrier bool) string {
	rvs := reductionVars(d)
	if len(rvs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s.Critical(\"\\x00omp.reduction\", func() {\n", tvar)
	for _, rv := range rvs {
		b.WriteString(combineStmt(rv[0], "__omp_red_"+rv[1], rv[1]) + "\n")
	}
	b.WriteString("})\n")
	if barrier {
		fmt.Fprintf(&b, "%s.Barrier()\n", tvar)
	}
	return b.String()
}

// --- construct lowerings ---

// parOpts renders the ParOption arguments of a parallel directive.
func (g *gen) parOpts(d *directive.Directive) string {
	var parts []string
	if e, ok := d.Expr(directive.ClauseNumThreads); ok {
		parts = append(parts, fmt.Sprintf("%s.NumThreads(%s)", g.pkg(), e))
	}
	if e, ok := d.Expr(directive.ClauseIf); ok {
		parts = append(parts, fmt.Sprintf("%s.If(%s)", g.pkg(), e))
	}
	if len(parts) == 0 {
		return ""
	}
	return ", " + strings.Join(parts, ", ")
}

// scheduleConsts maps the parsed schedule kind to the runtime facade's
// constant name.
var scheduleConsts = map[directive.ScheduleKind]string{
	directive.SchedStatic:  "Static",
	directive.SchedDynamic: "Dynamic",
	directive.SchedGuided:  "Guided",
	directive.SchedAuto:    "Auto",
	directive.SchedRuntime: "RuntimeSchedule",
}

// forOpts renders the ForOption arguments of a loop directive. forceNowait
// suppresses the loop's own barrier when the reduction epilogue supplies it.
func (g *gen) forOpts(d *directive.Directive, forceNowait bool) string {
	var parts []string
	if c, ok := d.Schedule(); ok {
		chunk := c.Chunk
		if chunk == "" {
			chunk = "0"
		}
		kind := scheduleConsts[c.Kind]
		// nonmonotonic:dynamic is the work-stealing scheduler; on guided
		// the modifier grants a permission this implementation does not
		// exploit, and monotonic selects the default (monotonic)
		// implementation of every kind, so both erase.
		if c.Modifier == directive.ModifierNonmonotonic && c.Kind == directive.SchedDynamic {
			kind = "Steal"
		}
		parts = append(parts, fmt.Sprintf("%s.Schedule(%s.%s, %s)", g.pkg(), g.pkg(), kind, chunk))
	}
	if d.Has(directive.ClauseNowait) || forceNowait {
		parts = append(parts, fmt.Sprintf("%s.NoWait()", g.pkg()))
	}
	if len(parts) == 0 {
		return ""
	}
	return ", " + strings.Join(parts, ", ")
}

// lowerParallel emits the region for `omp parallel`.
func (g *gen) lowerParallel(s *site) (string, error) {
	return g.parallelWrapper(s, g.bodyOf(s.Stmt))
}

// parallelWrapper wraps innerBody (statement text) in a parallel region with
// the site's clauses applied.
func (g *gen) parallelWrapper(s *site, innerBody string) (string, error) {
	d := s.Dir
	var b strings.Builder
	switch {
	case g.threadOK:
		// Nested region: fork from the enclosing thread.
		fmt.Fprintf(&b, "%s.Parallel(func(%s *%s.Thread) {\n", threadVar, threadVar, g.pkg())
	case g.rtOK:
		// Inside a target kernel: fork on the device's runtime, not the
		// process default.
		fmt.Fprintf(&b, "__omp_rt.Parallel(func(%s *%s.Thread) {\n", threadVar, g.pkg())
	default:
		fmt.Fprintf(&b, "%s.Parallel(func(%s *%s.Thread) {\n", g.pkg(), threadVar, g.pkg())
	}
	b.WriteString(g.privatePrologue(d))
	b.WriteString(g.reductionPrologue(d))
	b.WriteString(innerBody)
	b.WriteString("\n")
	// Region end: combine reductions; the fork-join barrier publishes.
	b.WriteString(g.reductionEpilogue(d, threadVar, false))
	b.WriteString("}" + g.parOpts(d) + ")")
	return b.String(), nil
}

// lowerFor emits the worksharing loop for `omp for` given the in-scope
// thread variable name.
func (g *gen) lowerFor(s *site, tvar string) (string, error) {
	if !g.threadOK {
		return "", s.diag(directive.DiagBadNesting,
			"`omp for` must be nested inside `omp parallel`: orphaned worksharing is not supported by the preprocessor (pass a *Thread and call ForLoop directly instead)")
	}
	return g.forBody(s, tvar)
}

// forBody generates the loop lowering shared by for and parallel for.
func (g *gen) forBody(s *site, tvar string) (string, error) {
	d := s.Dir
	fs, ok := s.Stmt.(*ast.ForStmt)
	if !ok {
		return "", s.diag(directive.DiagBadLoop, "%q must be followed by a for statement", d.Construct)
	}
	collapse := 1
	if n, ok := d.Collapse(); ok {
		collapse = n
	}
	ordN, ordered := d.Ordered()
	rvs := reductionVars(d)
	userNowait := d.Has(directive.ClauseNowait)
	// With a reduction the loop itself runs nowait; the epilogue combines
	// under a critical and ends with a barrier (unless the user asked for
	// nowait, in which case the combined value settles at the next
	// barrier, matching the spec).
	forceNowait := len(rvs) > 0

	var b strings.Builder
	b.WriteString("{\n")
	b.WriteString(g.reductionPrologue(d))
	b.WriteString(g.privatePrologue(d))

	// lastprivate pointers must be taken before shadowing.
	lastVars := d.Vars(directive.ClauseLastprivate)
	for _, v := range lastVars {
		fmt.Fprintf(&b, "__omp_last_%s := &%s\n", v, v)
		fmt.Fprintf(&b, "%s := %s.Zero(%s)\n_ = %s\n", v, g.pkg(), v, v)
	}

	if ordN >= 1 {
		// ordered(n): the doacross loop. The n-deep nest flattens exactly
		// as collapse(n) would (validation guarantees a matching collapse
		// parameter, if any), and the body's standalone ordered depend
		// directives have already been lowered to __omp_doa calls.
		if err := g.emitDoacross(&b, s, fs, tvar, lastVars, ordN); err != nil {
			return "", err
		}
	} else if collapse >= 2 {
		if ordered {
			return "", s.diag(directive.DiagUnsupported,
				"ordered regions inside a collapse(%d) loop are not supported; use ordered(%d) with depend(sink)/depend(source)", collapse, collapse)
		}
		if err := g.emitCollapse(&b, s, fs, tvar, lastVars, collapse); err != nil {
			return "", err
		}
	} else {
		info, err := analyzeFor(g, fs)
		if err != nil {
			return "", s.diag(directive.DiagBadLoop, "%v", err)
		}
		fmt.Fprintf(&b, "__omp_loop := %s.Loop{Begin: int64(%s), End: int64(%s), Step: int64(%s)}\n", g.pkg(), info.lb, info.end, info.step)
		needLast := len(lastVars) > 0
		if needLast {
			b.WriteString("__omp_lastval := __omp_loop.Iteration(__omp_loop.TripCount() - 1)\n")
		}
		body := g.bodyOf(fs.Body)
		if ordered {
			fmt.Fprintf(&b, "%s.ForOrdered(int(__omp_loop.TripCount()), func(__omp_k int, __omp_ord *%s.OrderedCtx) {\n", tvar, g.pkg())
			b.WriteString("__omp_i := __omp_loop.Iteration(int64(__omp_k))\n_ = __omp_ord\n")
		} else {
			fmt.Fprintf(&b, "%s.ForLoop(__omp_loop, func(__omp_i int64) {\n", tvar)
		}
		fmt.Fprintf(&b, "%s := int(__omp_i)\n_ = %s\n", info.varName, info.varName)
		b.WriteString(body)
		b.WriteString("\n")
		for _, v := range lastVars {
			fmt.Fprintf(&b, "if __omp_i == __omp_lastval { *__omp_last_%s = %s }\n", v, v)
		}
		b.WriteString("}" + g.forOpts(d, forceNowait) + ")\n")
	}

	if len(rvs) > 0 {
		b.WriteString(g.reductionEpilogue(d, tvar, !userNowait))
	}
	b.WriteString("}")
	return b.String(), nil
}

// collectNest walks n perfectly nested canonical loops starting at outer,
// returning their analyses outermost first. Each inner loop must be the
// sole statement of its parent's body and its bounds must not depend on any
// enclosing collapsed loop variable (the collapse restriction that makes
// the flattened trip count computable up front).
func (g *gen) collectNest(s *site, outer *ast.ForStmt, n int) ([]loopInfo, *ast.ForStmt, error) {
	infos := make([]loopInfo, 0, n)
	cur := outer
	for level := 1; ; level++ {
		info, err := analyzeFor(g, cur)
		if err != nil {
			return nil, nil, s.diag(directive.DiagBadLoop, "collapse(%d) loop at depth %d: %v", n, level, err)
		}
		for _, outerInfo := range infos {
			// A repeated variable name is a hard error regardless of type
			// information: the flattened body would declare it twice.
			if outerInfo.varName == info.varName {
				return nil, nil, s.diag(directive.DiagBadLoop,
					"collapse(%d): nested loops reuse the loop variable name %q", n, info.varName)
			}
			if exprMentions(cur, outerInfo) {
				return nil, nil, s.diag(directive.DiagBadLoop,
					"collapse(%d): loop bounds at depth %d must not depend on the outer loop variable %q",
					n, level, outerInfo.varName)
			}
		}
		infos = append(infos, info)
		if level == n {
			return infos, cur, nil
		}
		inner, ok := g.soleStmt(cur.Body).(*ast.ForStmt)
		if !ok {
			return nil, nil, s.diag(directive.DiagBadLoop,
				"collapse(%d) requires a perfectly nested for loop at depth %d", n, level+1)
		}
		cur = inner
	}
}

// emitCollapse lowers a collapse(n) perfectly nested loop nest. Depth 2
// flattens inline with div/mod on the inner trip count; deeper nests lower
// to ForNest, whose sched.DelinearizeNest de-linearizes each logical iteration.
func (g *gen) emitCollapse(b *strings.Builder, s *site, outer *ast.ForStmt, tvar string, lastVars []string, n int) error {
	if len(lastVars) > 0 {
		return s.diag(directive.DiagUnsupported, "lastprivate with collapse is not supported")
	}
	infos, innermost, err := g.collectNest(s, outer, n)
	if err != nil {
		return err
	}
	if n == 2 {
		oinfo, iinfo := infos[0], infos[1]
		fmt.Fprintf(b, "__omp_l1 := %s.Loop{Begin: int64(%s), End: int64(%s), Step: int64(%s)}\n", g.pkg(), oinfo.lb, oinfo.end, oinfo.step)
		fmt.Fprintf(b, "__omp_l2 := %s.Loop{Begin: int64(%s), End: int64(%s), Step: int64(%s)}\n", g.pkg(), iinfo.lb, iinfo.end, iinfo.step)
		b.WriteString("__omp_n2 := __omp_l2.TripCount()\n")
		fmt.Fprintf(b, "%s.ForLoop(%s.Loop{Begin: 0, End: __omp_l1.TripCount() * __omp_n2, Step: 1}, func(__omp_i int64) {\n", tvar, g.pkg())
		fmt.Fprintf(b, "%s := int(__omp_l1.Iteration(__omp_i / __omp_n2))\n_ = %s\n", oinfo.varName, oinfo.varName)
		fmt.Fprintf(b, "%s := int(__omp_l2.Iteration(__omp_i %% __omp_n2))\n_ = %s\n", iinfo.varName, iinfo.varName)
		b.WriteString(g.bodyOf(innermost.Body))
		b.WriteString("\n}" + g.forOpts(s.Dir, len(reductionVars(s.Dir)) > 0) + ")\n")
		return nil
	}
	fmt.Fprintf(b, "%s.ForNest([]%s.Loop{\n", tvar, g.pkg())
	for _, info := range infos {
		fmt.Fprintf(b, "{Begin: int64(%s), End: int64(%s), Step: int64(%s)},\n", info.lb, info.end, info.step)
	}
	b.WriteString("}, func(__omp_ix []int64) {\n")
	for i, info := range infos {
		fmt.Fprintf(b, "%s := int(__omp_ix[%d])\n_ = %s\n", info.varName, i, info.varName)
	}
	b.WriteString(g.bodyOf(innermost.Body))
	b.WriteString("\n}" + g.forOpts(s.Dir, len(reductionVars(s.Dir)) > 0) + ")\n")
	return nil
}

// emitDoacross lowers an ordered(n) doacross loop: the n perfectly nested
// loops flatten into a ForDoacross whose body exposes the iteration vector
// and the __omp_doa ctx that the standalone ordered depend directives
// (already lowered to __omp_doa.Wait/Post calls) use.
func (g *gen) emitDoacross(b *strings.Builder, s *site, outer *ast.ForStmt, tvar string, lastVars []string, n int) error {
	if len(lastVars) > 0 {
		return s.diag(directive.DiagUnsupported, "lastprivate with ordered(n) is not supported")
	}
	infos, innermost, err := g.collectNest(s, outer, n)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "%s.ForDoacross([]%s.Loop{\n", tvar, g.pkg())
	for _, info := range infos {
		fmt.Fprintf(b, "{Begin: int64(%s), End: int64(%s), Step: int64(%s)},\n", info.lb, info.end, info.step)
	}
	fmt.Fprintf(b, "}, func(__omp_ix []int64, __omp_doa *%s.DoacrossCtx) {\n_ = __omp_doa\n", g.pkg())
	for i, info := range infos {
		fmt.Fprintf(b, "%s := int(__omp_ix[%d])\n_ = %s\n", info.varName, i, info.varName)
	}
	b.WriteString(g.bodyOf(innermost.Body))
	b.WriteString("\n}" + g.forOpts(s.Dir, false) + ")\n")
	return nil
}

// lowerParallelFor emits the combined construct: a parallel region whose
// body is the worksharing loop.
func (g *gen) lowerParallelFor(s *site) (string, error) {
	// Split clauses: parallel-level ones stay on the wrapper; loop-level
	// ones go to the inner for. Data-sharing and reduction belong on the
	// wrapper so privatisation happens once per thread.
	inner := *s
	innerDir := *s.Dir
	inner.Dir = &innerDir

	savedThreadOK := g.threadOK
	g.threadOK = true // the wrapper introduces the thread variable
	loopCode, err := g.forBody(&inner, threadVar)
	g.threadOK = savedThreadOK
	if err != nil {
		return "", err
	}
	// The loop lowering already handled privatisation and reduction; the
	// wrapper only applies num_threads/if.
	return g.parallelWrapper(wrapperSite(s), loopCode)
}

// wrapperSite copies s with only the parallel-level clauses (num_threads,
// if) kept, for the enclosing region of a combined construct.
func wrapperSite(s *site) *site {
	wrapper := *s.Dir
	wrapper.Clauses = nil
	for _, c := range s.Dir.Clauses {
		if k := c.ClauseKind(); k == directive.ClauseNumThreads || k == directive.ClauseIf {
			wrapper.Clauses = append(wrapper.Clauses, c)
		}
	}
	ws := *s
	ws.Dir = &wrapper
	return &ws
}

// lowerSections emits the sections construct.
func (g *gen) lowerSections(s *site, tvar string) (string, error) {
	if !g.threadOK {
		return "", s.diag(directive.DiagBadNesting, "`omp sections` must be nested inside `omp parallel`")
	}
	block, ok := s.Stmt.(*ast.BlockStmt)
	if !ok {
		return "", s.diag(directive.DiagNoStatement, "`omp sections` must be followed by a block")
	}
	groups := g.sectionGroups(block)
	if len(groups) == 0 {
		return "", s.diag(directive.DiagNoStatement, "`omp sections` block contains no statements")
	}
	var b strings.Builder
	b.WriteString("{\n")
	b.WriteString(g.privatePrologue(s.Dir))
	b.WriteString(g.reductionPrologue(s.Dir))
	fmt.Fprintf(&b, "%s.Sections([]func(){\n", tvar)
	for _, grp := range groups {
		b.WriteString("func() {\n" + grp + "\n},\n")
	}
	b.WriteString("}" + g.forOpts(s.Dir, len(reductionVars(s.Dir)) > 0) + ")\n")
	if len(reductionVars(s.Dir)) > 0 {
		b.WriteString(g.reductionEpilogue(s.Dir, tvar, !s.Dir.Has(directive.ClauseNowait)))
	}
	b.WriteString("}")
	return b.String(), nil
}

// sectionGroups splits a sections block's top-level statements into section
// bodies. `omp section` comment markers delimit sections (the first marker
// may be omitted, as in OpenMP); with no markers at all, each top-level
// statement is its own section — a convenience extension.
func (g *gen) sectionGroups(block *ast.BlockStmt) []string {
	var markers []int
	lbrace := g.fset.Position(block.Lbrace).Offset
	rbrace := g.fset.Position(block.Rbrace).Offset
	for _, site := range g.sites {
		if !site.invalid && !site.dropped && site.Dir.Construct == directive.ConstructSection &&
			site.commentStart >= lbrace && site.commentEnd <= rbrace {
			markers = append(markers, site.commentStart)
		}
	}
	sortInts(markers)

	stmts := g.stmts(block)
	text := func(st blockStmt) string {
		if st.node == nil {
			return st.text
		}
		return g.text(st.node)
	}
	if len(markers) == 0 {
		var out []string
		for _, st := range stmts {
			out = append(out, text(st))
		}
		return out
	}
	var groups []string
	var cur []string
	mi := 0
	for _, st := range stmts {
		boundary := false
		for mi < len(markers) && markers[mi] < st.start {
			boundary = true
			mi++
		}
		if boundary && len(cur) > 0 {
			groups = append(groups, strings.Join(cur, "\n"))
			cur = nil
		}
		cur = append(cur, text(st))
	}
	if len(cur) > 0 {
		groups = append(groups, strings.Join(cur, "\n"))
	}
	return groups
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// lowerParallelSections wraps sections in a parallel region.
func (g *gen) lowerParallelSections(s *site) (string, error) {
	inner := *s
	innerDir := *s.Dir
	inner.Dir = &innerDir
	saved := g.threadOK
	g.threadOK = true
	secCode, err := g.lowerSections(&inner, threadVar)
	g.threadOK = saved
	if err != nil {
		return "", err
	}
	return g.parallelWrapper(wrapperSite(s), secCode)
}

// lowerSingle emits single, with copyprivate broadcast when requested.
func (g *gen) lowerSingle(s *site) (string, error) {
	if !g.threadOK {
		return "", s.diag(directive.DiagBadNesting, "`omp single` must be nested inside `omp parallel`")
	}
	d := s.Dir
	cpVars := d.Vars(directive.ClauseCopyprivate)
	var b strings.Builder
	if len(cpVars) == 0 {
		fmt.Fprintf(&b, "%s.Single(func() {\n", threadVar)
		b.WriteString(g.privatePrologue(d))
		b.WriteString(g.bodyOf(s.Stmt))
		b.WriteString("\n}" + g.forOpts(d, false) + ")")
		return b.String(), nil
	}
	b.WriteString("{\n")
	fmt.Fprintf(&b, "__omp_cp := %s.SingleCopy(func() any {\n", threadVar)
	b.WriteString(g.privatePrologue(d))
	b.WriteString(g.bodyOf(s.Stmt))
	b.WriteString("\nreturn []any{" + strings.Join(cpVars, ", ") + "}\n}).([]any)\n")
	for i, v := range cpVars {
		fmt.Fprintf(&b, "%s.CopyAssign(&%s, __omp_cp[%d])\n", g.pkg(), v, i)
	}
	b.WriteString("}")
	return b.String(), nil
}

// lowerCritical emits critical; without a thread context it falls back to
// the default runtime's named locks, which exclude across regions anyway.
func (g *gen) lowerCritical(s *site) string {
	name, _ := s.Dir.Name()
	recv := g.pkg()
	if g.threadOK {
		recv = threadVar
	}
	return fmt.Sprintf("%s.Critical(%q, func() %s)", recv, name, g.blockText(s.Stmt))
}

// lowerAtomic wraps the statement in the dedicated atomic lock. A real
// compiler would select hardware atomics by operand type; without type
// information the preprocessor uses the strongest universal lowering, and
// the runtime exposes gomp.Float64/Int64 cells for hand-tuned hot paths.
func (g *gen) lowerAtomic(s *site) string {
	recv := g.pkg()
	if g.threadOK {
		recv = threadVar
	}
	return fmt.Sprintf("%s.Critical(\"\\x00omp.atomic\", func() %s)", recv, g.blockText(s.Stmt))
}

// lowerOrdered emits the ordered construct. Its block form becomes an
// in-iteration-order region inside a ForOrdered loop (__omp_ord); its
// standalone doacross forms — `ordered depend(sink: vec)` and `ordered
// depend(source)` — become Wait/Post calls on the __omp_doa ctx that the
// enclosing ordered(n) loop's lowering introduces.
func (g *gen) lowerOrdered(s *site) (string, error) {
	// Find the innermost enclosing loop directive carrying the ordered
	// clause; its parameter decides which form is legal here.
	var encl *site
	for _, e := range g.sites {
		if e == s || e.Stmt == nil {
			continue
		}
		if e.stmtStart <= s.commentStart && s.end() <= e.stmtEnd && e.Dir.Has(directive.ClauseOrdered) {
			if encl == nil || e.stmtStart > encl.stmtStart {
				encl = e
			}
		}
	}
	enclN := -1
	if encl != nil {
		enclN, _ = encl.Dir.Ordered()
	}

	deps := s.Dir.Depends()
	if len(deps) == 0 {
		// Block form: requires a plain (parameterless) ordered loop.
		if enclN != 0 {
			if enclN >= 1 {
				return "", s.diag(directive.DiagBadNesting,
					"a block `omp ordered` region cannot appear inside an ordered(%d) doacross loop; use `omp ordered depend(sink: ...)` / `omp ordered depend(source)`", enclN)
			}
			return "", s.diag(directive.DiagBadNesting, "`omp ordered` must be nested inside a loop with the ordered clause")
		}
		return fmt.Sprintf("__omp_ord.Do(func() %s)", g.blockText(s.Stmt)), nil
	}

	// Doacross form: requires an enclosing ordered(n) loop, and every sink
	// vector must have exactly n components.
	if enclN < 1 {
		return "", s.diag(directive.DiagBadNesting,
			"`omp ordered depend` must be nested inside a loop with the ordered(n) clause")
	}
	var b strings.Builder
	for _, dc := range deps {
		switch dc.Mode {
		case directive.DependSource:
			b.WriteString("__omp_doa.Post()\n")
		case directive.DependSink:
			if len(dc.Vars) != enclN {
				return "", s.diag(directive.DiagBadClauseArg,
					"depend(sink) vector %q has %d component(s); the enclosing loop declares ordered(%d)",
					dc.String(), len(dc.Vars), enclN)
			}
			args := make([]string, len(dc.Vars))
			for i, v := range dc.Vars {
				args[i] = "int64(" + v + ")"
			}
			b.WriteString("__omp_doa.Wait(" + strings.Join(args, ", ") + ")\n")
		}
	}
	return strings.TrimSuffix(b.String(), "\n"), nil
}

// dependConstructors maps the dependence type to the facade's option name.
var dependConstructors = map[directive.DepMode]string{
	directive.DependIn:    "DependIn",
	directive.DependOut:   "DependOut",
	directive.DependInOut: "DependInOut",
}

// taskOpts renders the TaskOption arguments of a task or taskloop
// directive: depend lists become address-of option calls, the expression
// clauses (priority, final, if, num_tasks) pass their text through, and
// nogroup is a bare option.
func (g *gen) taskOpts(d *directive.Directive) string {
	var parts []string
	for _, dc := range d.Depends() {
		args := make([]string, len(dc.Vars))
		for i, v := range dc.Vars {
			args[i] = "&" + v
		}
		parts = append(parts, fmt.Sprintf("%s.%s(%s)",
			g.pkg(), dependConstructors[dc.Mode], strings.Join(args, ", ")))
	}
	if e, ok := d.Expr(directive.ClausePriority); ok {
		parts = append(parts, fmt.Sprintf("%s.Priority(%s)", g.pkg(), e))
	}
	if e, ok := d.Expr(directive.ClauseFinal); ok {
		parts = append(parts, fmt.Sprintf("%s.Final(%s)", g.pkg(), e))
	}
	if e, ok := d.Expr(directive.ClauseIf); ok {
		parts = append(parts, fmt.Sprintf("%s.TaskIf(%s)", g.pkg(), e))
	}
	if e, ok := d.Expr(directive.ClauseNumTasks); ok {
		parts = append(parts, fmt.Sprintf("%s.NumTasks(%s)", g.pkg(), e))
	}
	if d.Has(directive.ClauseNogroup) {
		parts = append(parts, fmt.Sprintf("%s.NoGroup()", g.pkg()))
	}
	if len(parts) == 0 {
		return ""
	}
	return ", " + strings.Join(parts, ", ")
}

// lowerTask emits the task construct. firstprivate copies are snapshotted at
// task creation (OpenMP's default capture for tasks), private vars are fresh
// inside the task body; depend/priority/final/if clauses become TaskOption
// arguments.
func (g *gen) lowerTask(s *site) (string, error) {
	if !g.threadOK {
		return "", s.diag(directive.DiagBadNesting, "`omp task` must be nested inside `omp parallel`")
	}
	d := s.Dir
	var b strings.Builder
	b.WriteString("{\n")
	// Creation-time snapshots.
	for _, v := range d.Vars(directive.ClauseFirstprivate) {
		fmt.Fprintf(&b, "%s := %s\n_ = %s\n", v, v, v)
	}
	fmt.Fprintf(&b, "%s.Task(func(%s *%s.Thread) {\n", threadVar, threadVar, g.pkg())
	for _, v := range d.Vars(directive.ClausePrivate) {
		fmt.Fprintf(&b, "%s := %s.Zero(%s)\n_ = %s\n", v, g.pkg(), v, v)
	}
	b.WriteString(g.bodyOf(s.Stmt))
	b.WriteString("\n}" + g.taskOpts(d) + ")\n}")
	return b.String(), nil
}

// lowerTaskloop emits taskloop over a canonical for statement.
func (g *gen) lowerTaskloop(s *site) (string, error) {
	if !g.threadOK {
		return "", s.diag(directive.DiagBadNesting, "`omp taskloop` must be nested inside `omp parallel`")
	}
	fs, ok := s.Stmt.(*ast.ForStmt)
	if !ok {
		return "", s.diag(directive.DiagBadLoop, "`omp taskloop` must be followed by a for statement")
	}
	info, err := analyzeFor(g, fs)
	if err != nil {
		return "", s.diag(directive.DiagBadLoop, "%v", err)
	}
	grain := "0"
	if e, ok := s.Dir.Expr(directive.ClauseGrainsize); ok {
		grain = e
	}
	var b strings.Builder
	b.WriteString("{\n")
	for _, v := range s.Dir.Vars(directive.ClauseFirstprivate) {
		fmt.Fprintf(&b, "%s := %s\n_ = %s\n", v, v, v)
	}
	fmt.Fprintf(&b, "__omp_loop := %s.Loop{Begin: int64(%s), End: int64(%s), Step: int64(%s)}\n", g.pkg(), info.lb, info.end, info.step)
	fmt.Fprintf(&b, "%s.Taskloop(int(__omp_loop.TripCount()), %s, func(__omp_k int) {\n", threadVar, grain)
	fmt.Fprintf(&b, "%s := int(__omp_loop.Iteration(int64(__omp_k)))\n_ = %s\n", info.varName, info.varName)
	for _, v := range s.Dir.Vars(directive.ClausePrivate) {
		fmt.Fprintf(&b, "%s := %s.Zero(%s)\n_ = %s\n", v, g.pkg(), v, v)
	}
	b.WriteString(g.bodyOf(fs.Body))
	b.WriteString("\n}" + g.taskOpts(s.Dir) + ")\n}")
	return b.String(), nil
}

// soleStmt returns the only statement of a block; nil if the block does not
// read as exactly one statement, or if its statement is an inner lowering's.
func (g *gen) soleStmt(b *ast.BlockStmt) ast.Stmt {
	list := g.stmts(b)
	if len(list) != 1 {
		return nil
	}
	return list[0].node
}

// exprMentions reports whether the loop header of fs references the outer
// collapsed loop's variable. The lowering has no type information, so this
// is a name match, conservative for a shadowing redeclaration of the same
// name, but aware of one scope rule: in a selector x.j, j is a field,
// method or package member, never the loop variable, so only x is checked.
func exprMentions(fs *ast.ForStmt, outer loopInfo) bool {
	found := false
	var visit func(ast.Node) bool
	visit = func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			ast.Inspect(x.X, visit)
			return false
		case *ast.Ident:
			found = found || x.Name == outer.varName
		}
		return !found
	}
	for _, n := range []ast.Node{fs.Init, fs.Cond, fs.Post} {
		if n != nil {
			ast.Inspect(n, visit)
		}
	}
	return found
}
