package modpipe

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/directive"
	"repro/internal/modpipe/corpusgen"
	"repro/internal/sema"
)

// The module-level semantic-analysis suite: strict mode diagnoses every
// ill-typed corpus file with a positioned DiagSema and withholds its
// output, produces zero false positives on every other kind, behaves
// identically at every worker count, and the sema unit cache replays
// warm runs without re-checking.

// semaDiagsByFile collects the run's DiagSema findings keyed by file.
func semaDiagsByFile(res *Result) map[string]directive.DiagnosticList {
	out := map[string]directive.DiagnosticList{}
	for _, d := range res.Diags {
		if d.Kind == directive.DiagSema {
			out[d.File] = append(out[d.File], d)
		}
	}
	return out
}

// TestSemaStrictStress runs the full 2,000-file corpus with strict sema:
// every ill-typed file yields at least one positioned DiagSema and its
// output is withheld; no other kind gets a sema finding (the
// zero-false-positive half of the contract).
func TestSemaStrictStress(t *testing.T) {
	root, m := genCorpus(t, stressFiles, 42)
	res, err := Run(root, Options{Workers: 8, Sema: sema.Strict})
	if err != nil {
		t.Fatal(err)
	}
	if res.Panics != 0 {
		t.Errorf("%d recovered panics with sema on", res.Panics)
	}
	if res.SemaUnits == 0 || res.SemaChecked != res.SemaUnits {
		t.Errorf("cold strict run: %d/%d units checked", res.SemaChecked, res.SemaUnits)
	}
	byFile := semaDiagsByFile(res)
	byRel := make(map[string]*FileResult, len(res.Files))
	for _, f := range res.Files {
		byRel[f.Rel] = f
	}
	for _, cf := range m.Files {
		findings := byFile[cf.Rel]
		if cf.Kind == corpusgen.IllTyped {
			if len(findings) == 0 {
				t.Errorf("ill-typed file %s yielded no DiagSema", cf.Rel)
				continue
			}
			for _, d := range findings {
				if d.Line < 1 || d.Col < 1 || d.Span < 1 || d.Severity != directive.SevError {
					t.Errorf("ill-typed file %s: sema diagnostic not positioned: %+v", cf.Rel, d)
				}
			}
			if f := byRel[cf.Rel]; f == nil || !f.SemaBlocked || f.Output != nil {
				t.Errorf("ill-typed file %s: output not withheld under strict sema", cf.Rel)
			}
		} else if len(findings) != 0 {
			t.Errorf("%s file %s got false-positive sema findings: %v", cf.Kind, cf.Rel, findings)
		}
	}
}

// TestSemaStrictWorkerSweep asserts the strict-mode diagnosis is complete
// and byte-identical at every worker count from 1 to 8.
func TestSemaStrictWorkerSweep(t *testing.T) {
	root, m := genCorpus(t, 240, 17)
	var ref string
	for workers := 1; workers <= 8; workers++ {
		res, err := Run(root, Options{Workers: workers, Sema: sema.Strict})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		byFile := semaDiagsByFile(res)
		for _, cf := range m.Files {
			if cf.Kind == corpusgen.IllTyped && len(byFile[cf.Rel]) == 0 {
				t.Errorf("workers=%d: ill-typed file %s not diagnosed", workers, cf.Rel)
			}
		}
		rendered := res.Diags.Error()
		if workers == 1 {
			ref = rendered
			continue
		}
		if rendered != ref {
			t.Errorf("workers=%d: diagnostics differ from the serial run", workers)
		}
	}
}

// TestSemaWarnModuleDoesNotBlock: warn mode reports the same findings at
// warning severity, the error count matches a sema-off run, and every
// ill-typed file still produces output.
func TestSemaWarnModuleDoesNotBlock(t *testing.T) {
	root, m := genCorpus(t, 120, 29)
	off, err := Run(root, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	warn, err := Run(root, Options{Workers: 4, Sema: sema.Warn})
	if err != nil {
		t.Fatal(err)
	}
	if warn.ErrorCount() != off.ErrorCount() {
		t.Errorf("warn mode changed the error count: %d vs %d sema-off", warn.ErrorCount(), off.ErrorCount())
	}
	sawWarning := false
	for _, d := range warn.Diags {
		if d.Kind == directive.DiagSema {
			sawWarning = true
			if d.Severity != directive.SevWarning {
				t.Errorf("warn-mode sema finding at error severity: %v", d)
			}
		}
	}
	if !sawWarning {
		t.Error("warn mode reported no sema findings over a corpus with ill-typed files")
	}
	byRel := make(map[string]*FileResult, len(warn.Files))
	for _, f := range warn.Files {
		byRel[f.Rel] = f
	}
	for _, cf := range m.Files {
		if cf.Kind == corpusgen.IllTyped {
			if f := byRel[cf.Rel]; f == nil || f.SemaBlocked || f.Output == nil {
				t.Errorf("warn mode withheld output for %s", cf.Rel)
			}
		}
	}
}

// TestSemaCacheIncremental walks the sema half of the cache contract:
// cold checks every unit; warm checks none and replays identical
// diagnostics; a pure comment edit in one file re-checks exactly that
// file's package unit while re-transforming only the edited file; a
// cache written by sema-off runs is sema-cold but transform-warm.
func TestSemaCacheIncremental(t *testing.T) {
	root, m := genCorpus(t, 60, 5)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	run := func() (*Result, []string, []string) {
		thook, transformed := countingHook()
		shook, checked := countingHook()
		res, err := Run(root, Options{Workers: 4, CacheDir: cacheDir, Sema: sema.Strict,
			OnTransform: thook, OnSemaCheck: shook})
		if err != nil {
			t.Fatal(err)
		}
		return res, transformed(), checked()
	}

	cold, transformed, checked := run()
	if cold.SemaUnits == 0 || len(checked) != cold.SemaUnits {
		t.Fatalf("cold run checked %d units, planned %d", len(checked), cold.SemaUnits)
	}
	if len(transformed) != len(m.Files) {
		t.Fatalf("cold run transformed %d files, want %d", len(transformed), len(m.Files))
	}
	coldDiags := cold.Diags.Error()
	if len(semaDiagsByFile(cold)) == 0 {
		t.Fatal("cold strict run produced no sema diagnostics; cache test is vacuous")
	}

	warm, transformed, checked := run()
	if len(checked) != 0 {
		t.Fatalf("warm run re-checked %d units, want 0: %v", len(checked), checked)
	}
	if len(transformed) != 0 {
		t.Fatalf("warm run re-transformed %d files, want 0", len(transformed))
	}
	if warm.SemaCacheHits != warm.SemaUnits {
		t.Fatalf("warm run: %d sema hits over %d units", warm.SemaCacheHits, warm.SemaUnits)
	}
	if warm.Diags.Error() != coldDiags {
		t.Error("warm run replayed different diagnostics than the cold run")
	}

	// A pure comment edit in one file: its package unit re-checks (the
	// unit key covers every member's content), but only the edited file
	// re-transforms — unchanged siblings replay their transform entries.
	victim := m.Files[0].Rel
	victimPath := filepath.Join(root, filepath.FromSlash(victim))
	orig, err := os.ReadFile(victimPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victimPath, append([]byte("// a comment, no code change\n"), orig...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, transformed, checked = run()
	if len(checked) != 1 {
		t.Fatalf("comment edit re-checked %d units, want exactly the victim's: %v", len(checked), checked)
	}
	if len(transformed) != 1 || transformed[0] != victim {
		t.Fatalf("comment edit re-transformed %v, want exactly %s", transformed, victim)
	}

	// A cache that only sema-off runs have written holds file records and
	// no unit records: sema-cold, transform-warm.
	if err := os.WriteFile(victimPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir = filepath.Join(t.TempDir(), "cache-sema-off")
	if _, err := Run(root, Options{Workers: 4, CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}
	res, transformed, checked := run()
	if len(checked) != res.SemaUnits {
		t.Fatalf("sema-off cache: re-checked %d units, want all %d", len(checked), res.SemaUnits)
	}
	if len(transformed) != 0 {
		t.Fatalf("sema-off cache: re-transformed %d files, want 0 (file records are mode-independent)", len(transformed))
	}
	if res.Diags.Error() != coldDiags {
		t.Error("sema-cold run produced different diagnostics")
	}
	if _, transformed, checked = run(); len(transformed)+len(checked) != 0 {
		t.Fatalf("run after the sema-cold one redid %d files and %d units", len(transformed), len(checked))
	}
}

// TestSemaUnitKeyMoves pins the unit key's inputs: the sema version and
// any member file's content each move the key.
func TestSemaUnitKeyMoves(t *testing.T) {
	a, b := &unit{rel: "p/a.go", sum: cacheKey{1}}, &unit{rel: "p/b.go", sum: cacheKey{2}}
	base := semaUnitKey(sema.Version, "p:p", []*unit{a, b})
	if semaUnitKey(sema.Version+"-next", "p:p", []*unit{a, b}) == base {
		t.Error("unit key ignores the sema version")
	}
	edited := &unit{rel: "p/b.go", sum: cacheKey{3}}
	if semaUnitKey(sema.Version, "p:p", []*unit{a, edited}) == base {
		t.Error("unit key ignores member file content")
	}
}
