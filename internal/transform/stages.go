package transform

import (
	"fmt"
	"go/token"
	"strings"

	"repro/internal/directive"
	"repro/internal/sema"
)

// Figure 1 of the paper shows the preprocessing pipeline: intercept OpenMP
// pragmas in the source, parse them, extract the annotated blocks into
// functions, and emit code calling the runtime. This front end inserts a
// semantic-analysis stage between parsing and outlining. FileStages runs
// the same transformation as File but records each stage's artifact so
// cmd/gompcc -dump-stages (and the E3 tests) can display the pipeline.

// ScannedDirective is a stage-1 artifact: one intercepted directive comment.
type ScannedDirective struct {
	Pos  token.Position
	Text string
	// Parsed is the stage-2 artifact for the same comment.
	Parsed *directive.Directive
}

// SemaRecord is the stage-3 artifact: what the semantic analysis saw.
type SemaRecord struct {
	// Mode is the sema mode the run used (never Off: with sema off the
	// Stages.Sema field is nil instead).
	Mode sema.Mode
	// SoftErrors counts tolerated type-check failures (failed imports,
	// type errors in user code); non-zero means name resolution was
	// incomplete and the undeclared-name check was disabled.
	SoftErrors int
	// Directives lists the checked directives with clause symbols resolved.
	Directives []sema.Checked
	// Diags holds the sema findings at their final severity (errors in
	// strict mode, warnings in warn mode).
	Diags directive.DiagnosticList
}

// Stages is the full pipeline record.
type Stages struct {
	// Scanned holds the intercepted (stage 1) and parsed (stage 2)
	// directives in source order.
	Scanned []ScannedDirective
	// Sema is the semantic-analysis record (stage 3); nil when the sema
	// stage was off.
	Sema *SemaRecord
	// Lowered records each outlining step (stage 4) in the order
	// performed (innermost first).
	Lowered []Step
	// Output is the emitted source (stage 5).
	Output []byte
}

// FileStages transforms src recording every pipeline stage. It runs the
// same pass as File, which fills in each stage as it goes.
func FileStages(filename string, src []byte, opts Options) (*Stages, error) {
	st := &Stages{}
	out, _, err := run(filename, src, opts, st)
	if err != nil {
		return nil, err
	}
	st.Output = out
	return st, nil
}

// Report renders a human-readable pipeline summary.
func (st *Stages) Report() string {
	var b strings.Builder
	b.WriteString("stage 1+2: intercepted and parsed directives\n")
	if len(st.Scanned) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, s := range st.Scanned {
		fmt.Fprintf(&b, "  %s:%d: //%s\n", s.Pos.Filename, s.Pos.Line, s.Parsed)
	}
	if st.Sema == nil {
		b.WriteString("stage 3: semantic analysis (off)\n")
	} else {
		fmt.Fprintf(&b, "stage 3: semantic analysis (%s): %d directive(s) checked, %d soft error(s), %d finding(s)\n",
			st.Sema.Mode, len(st.Sema.Directives), st.Sema.SoftErrors, len(st.Sema.Diags))
		for _, chk := range st.Sema.Directives {
			for _, sym := range directiveSymbols(chk.Dir) {
				fmt.Fprintf(&b, "  line %d: %s\n", chk.Pos.Line, sym)
			}
		}
		for _, d := range st.Sema.Diags {
			fmt.Fprintf(&b, "  %s\n", d.Error())
		}
	}
	b.WriteString("stage 4: outlined regions (innermost first)\n")
	for _, l := range st.Lowered {
		fmt.Fprintf(&b, "  line %d: %s -> %d outlined function(s)\n", l.Pos.Line, l.Directive.Construct, l.Outlined)
	}
	fmt.Fprintf(&b, "stage 5: emitted %d bytes of Go\n", len(st.Output))
	return b.String()
}

// directiveSymbols flattens a checked directive's resolved clause symbols
// into "clause: name kind type" lines for the stage dump.
func directiveSymbols(d *directive.Directive) []string {
	var out []string
	add := func(label string, syms []directive.Symbol) {
		for _, s := range syms {
			out = append(out, fmt.Sprintf("%s: %s", label, s))
		}
	}
	for _, c := range d.Clauses {
		switch cl := c.(type) {
		case *directive.DataSharingClause:
			add(cl.Kind.String(), cl.Syms)
		case *directive.ReductionClause:
			add(fmt.Sprintf("reduction(%s)", cl.Op), cl.Syms)
		case *directive.MapClause:
			add("map", cl.Syms)
		case *directive.MotionClause:
			add(cl.Kind.String(), cl.Syms)
		case *directive.DependClause:
			add("depend", cl.Syms)
		}
	}
	return out
}
