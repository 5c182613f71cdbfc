package transform

import (
	"fmt"
	"go/ast"
	"strings"

	"repro/internal/directive"
)

// Target-family lowerings. A target region outlines its body into a closure
// kernel handed to gomp.TargetRegion; the data constructs become calls on
// the gomp facade's data-environment API. Every map list item is passed as
// gomp.MapX("v", &v) — the address is what lets the present table identify
// the storage and write results back.

// mapConstructors maps the parsed map-type to the facade's constructor.
var mapConstructors = map[directive.MapType]string{
	directive.MapToFrom:  "MapToFrom",
	directive.MapTo:      "MapTo",
	directive.MapFrom:    "MapFrom",
	directive.MapAlloc:   "MapAlloc",
	directive.MapRelease: "MapRelease",
	directive.MapDelete:  "MapDelete",
}

// mapArgs renders the trailing Mapping arguments of a target call from the
// directive's map clauses, in source order.
func (g *gen) mapArgs(d *directive.Directive) string {
	var parts []string
	for _, mc := range d.Maps() {
		for _, v := range mc.Vars {
			parts = append(parts, fmt.Sprintf("%s.%s(%q, &%s)", g.pkg(), mapConstructors[mc.Type], v, v))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return ", " + strings.Join(parts, ", ")
}

// motionArgs renders the Mapping arguments of a target update call from its
// to/from clauses.
func (g *gen) motionArgs(d *directive.Directive) string {
	var parts []string
	for _, mc := range d.Motions() {
		ctor := "MapTo"
		if mc.Kind == directive.ClauseFrom {
			ctor = "MapFrom"
		}
		for _, v := range mc.Vars {
			parts = append(parts, fmt.Sprintf("%s.%s(%q, &%s)", g.pkg(), ctor, v, v))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return ", " + strings.Join(parts, ", ")
}

// rejectTargetNowait diagnoses the nowait clause on target constructs: the
// preprocessor has no deferred-task region to attach the target task to, so
// asynchronous offload stays an API-level feature.
func (g *gen) rejectTargetNowait(s *site) error {
	if s.Dir.Has(directive.ClauseNowait) {
		return s.diag(directive.DiagUnsupported,
			"nowait on %q is not supported by the preprocessor; call %s.TargetNowait and %s.TargetSync directly for asynchronous offload",
			s.Dir.Construct, g.pkg(), g.pkg())
	}
	return nil
}

// targetPreamble emits the device-id computation shared by every target
// lowering: the device clause expression (or the default-device sentinel),
// demoted to the host when an if clause is present and false — the spec's
// if-clause semantics for device constructs.
func (g *gen) targetPreamble(b *strings.Builder, d *directive.Directive) {
	dev := g.pkg() + ".DefaultDeviceID"
	if e, ok := d.Expr(directive.ClauseDevice); ok {
		dev = e
	}
	fmt.Fprintf(b, "__omp_dev := %s\n", dev)
	if cond, ok := d.Expr(directive.ClauseIf); ok {
		fmt.Fprintf(b, "if !(%s) {\n__omp_dev = 0\n}\n", cond)
	}
}

// launchExpr renders the gomp.Launch literal from num_teams/thread_limit.
func (g *gen) launchExpr(d *directive.Directive) string {
	var fields []string
	if e, ok := d.Expr(directive.ClauseNumTeams); ok {
		fields = append(fields, "NumTeams: "+e)
	}
	if e, ok := d.Expr(directive.ClauseThreadLimit); ok {
		fields = append(fields, "ThreadLimit: "+e)
	}
	return g.pkg() + ".Launch{" + strings.Join(fields, ", ") + "}"
}

// kernelHeader opens the closure-kernel literal every structured target
// region outlines its body into. The parameters bind the executing device's
// runtime (__omp_rt — what nested parallel directives fork on), the launch
// configuration and the device data environment.
func (g *gen) kernelHeader(b *strings.Builder) {
	fmt.Fprintf(b, "func(__omp_rt *%s.Runtime, __omp_cfg %s.Launch, __omp_env *%s.TargetEnv) {\n",
		g.pkg(), g.pkg(), g.pkg())
	b.WriteString("_, _, _ = __omp_rt, __omp_cfg, __omp_env\n")
}

// lowerTarget emits `omp target`: the block becomes a closure kernel run
// through TargetRegion with the directive's maps, on the device the
// device/if clauses select.
func (g *gen) lowerTarget(s *site) (string, error) {
	if err := g.rejectTargetNowait(s); err != nil {
		return "", err
	}
	d := s.Dir
	var b strings.Builder
	b.WriteString("{\n")
	g.targetPreamble(&b, d)
	fmt.Fprintf(&b, "if __omp_err := %s.TargetRegion(__omp_dev, %s.Launch{}, ", g.pkg(), g.pkg())
	g.kernelHeader(&b)
	b.WriteString(g.privatePrologue(d))
	b.WriteString(g.bodyOf(s.Stmt))
	b.WriteString("\n}" + g.mapArgs(d) + "); __omp_err != nil {\npanic(__omp_err)\n}\n}")
	return b.String(), nil
}

// lowerTargetTeamsFor emits the combined `omp target teams distribute
// parallel for`: the canonical loop (or a collapse(2) nest, flattened with
// div/mod exactly as the host collapse lowering does) workshared across a
// league of teams via TeamsFor, inside a closure kernel.
func (g *gen) lowerTargetTeamsFor(s *site) (string, error) {
	if err := g.rejectTargetNowait(s); err != nil {
		return "", err
	}
	d := s.Dir
	fs, ok := s.Stmt.(*ast.ForStmt)
	if !ok {
		return "", s.diag(directive.DiagBadLoop, "%q must be followed by a for statement", d.Construct)
	}
	collapse := 1
	if n, ok := d.Collapse(); ok {
		collapse = n
	}
	if collapse > 2 {
		return "", s.diag(directive.DiagUnsupported,
			"collapse(%d) on %q is not supported (the teams worksharing loop flattens at most 2 levels)", collapse, d.Construct)
	}

	var b strings.Builder
	b.WriteString("{\n")
	g.targetPreamble(&b, d)
	fmt.Fprintf(&b, "if __omp_err := %s.TargetRegion(__omp_dev, %s, ", g.pkg(), g.launchExpr(d))
	g.kernelHeader(&b)

	sched := g.forOpts(d, false) // schedule(...) is the only loop option here
	if collapse == 2 {
		infos, innermost, err := g.collectNest(s, fs, 2)
		if err != nil {
			return "", err
		}
		oinfo, iinfo := infos[0], infos[1]
		fmt.Fprintf(&b, "__omp_l1 := %s.Loop{Begin: int64(%s), End: int64(%s), Step: int64(%s)}\n", g.pkg(), oinfo.lb, oinfo.end, oinfo.step)
		fmt.Fprintf(&b, "__omp_l2 := %s.Loop{Begin: int64(%s), End: int64(%s), Step: int64(%s)}\n", g.pkg(), iinfo.lb, iinfo.end, iinfo.step)
		b.WriteString("__omp_n2 := __omp_l2.TripCount()\n")
		fmt.Fprintf(&b, "%s.TeamsFor(__omp_rt, __omp_cfg, int(__omp_l1.TripCount()*__omp_n2), func(__omp_k int, %s *%s.Thread) {\n", g.pkg(), threadVar, g.pkg())
		fmt.Fprintf(&b, "_ = %s\n", threadVar)
		b.WriteString(g.privatePrologue(d))
		fmt.Fprintf(&b, "%s := int(__omp_l1.Iteration(int64(__omp_k) / __omp_n2))\n_ = %s\n", oinfo.varName, oinfo.varName)
		fmt.Fprintf(&b, "%s := int(__omp_l2.Iteration(int64(__omp_k) %% __omp_n2))\n_ = %s\n", iinfo.varName, iinfo.varName)
		b.WriteString(g.bodyOf(innermost.Body))
	} else {
		info, err := analyzeFor(g, fs)
		if err != nil {
			return "", s.diag(directive.DiagBadLoop, "%v", err)
		}
		fmt.Fprintf(&b, "__omp_loop := %s.Loop{Begin: int64(%s), End: int64(%s), Step: int64(%s)}\n", g.pkg(), info.lb, info.end, info.step)
		fmt.Fprintf(&b, "%s.TeamsFor(__omp_rt, __omp_cfg, int(__omp_loop.TripCount()), func(__omp_k int, %s *%s.Thread) {\n", g.pkg(), threadVar, g.pkg())
		fmt.Fprintf(&b, "_ = %s\n", threadVar)
		b.WriteString(g.privatePrologue(d))
		fmt.Fprintf(&b, "%s := int(__omp_loop.Iteration(int64(__omp_k)))\n_ = %s\n", info.varName, info.varName)
		b.WriteString(g.bodyOf(fs.Body))
	}
	b.WriteString("\n}" + sched + ")\n")
	b.WriteString("}" + g.mapArgs(d) + "); __omp_err != nil {\npanic(__omp_err)\n}\n}")
	return b.String(), nil
}

// lowerTargetData emits `omp target data`: the block runs inside a
// structured device data environment; its nested target constructs reuse
// the mapped buffers through the present table.
func (g *gen) lowerTargetData(s *site) (string, error) {
	d := s.Dir
	var b strings.Builder
	b.WriteString("{\n")
	g.targetPreamble(&b, d)
	fmt.Fprintf(&b, "if __omp_err := %s.TargetData(__omp_dev, func() error {\n", g.pkg())
	b.WriteString(g.bodyOf(s.Stmt))
	b.WriteString("\nreturn nil\n}" + g.mapArgs(d) + "); __omp_err != nil {\npanic(__omp_err)\n}\n}")
	return b.String(), nil
}

// lowerTargetEnterExit emits the standalone `omp target enter data` /
// `omp target exit data`.
func (g *gen) lowerTargetEnterExit(s *site) (string, error) {
	if err := g.rejectTargetNowait(s); err != nil {
		return "", err
	}
	d := s.Dir
	call := "TargetEnterData"
	if d.Construct == directive.ConstructTargetExitData {
		call = "TargetExitData"
	}
	var b strings.Builder
	b.WriteString("{\n")
	g.targetPreamble(&b, d)
	fmt.Fprintf(&b, "if __omp_err := %s.%s(__omp_dev%s); __omp_err != nil {\npanic(__omp_err)\n}\n}", g.pkg(), call, g.mapArgs(d))
	return b.String(), nil
}

// lowerTargetUpdate emits the standalone `omp target update`.
func (g *gen) lowerTargetUpdate(s *site) (string, error) {
	if err := g.rejectTargetNowait(s); err != nil {
		return "", err
	}
	d := s.Dir
	var b strings.Builder
	b.WriteString("{\n")
	g.targetPreamble(&b, d)
	fmt.Fprintf(&b, "if __omp_err := %s.TargetUpdate(__omp_dev%s); __omp_err != nil {\npanic(__omp_err)\n}\n}", g.pkg(), g.motionArgs(d))
	return b.String(), nil
}
