// Package modpipe is gompcc's whole-module pipeline: it loads every Go
// file in a module, groups the files into per-directory package units for
// semantic analysis, plans per-file transform units, runs them in
// parallel on the gomp runtime itself — the work-stealing loop scheduler
// transforming code that uses the runtime — and aggregates every file's
// diagnostics into one deterministic, position-sorted list.
//
// Semantic analysis (Options.Sema) runs as its own phase before the
// transform phase, one unit per (directory, package clause) so
// cross-file names resolve. The per-file transformer always runs with
// its own sema stage off: transform outputs and cache entries are
// mode-independent, and the pipeline owns blocking (strict mode withholds
// the output of files with sema errors) and demotion (warn mode reports
// the same findings at warning severity).
//
// Three properties the production story depends on, all tested:
//
//   - Determinism: the output bytes and the diagnostic list are identical
//     at any worker count. Each unit writes only its own slot of a
//     preallocated results slice, per-file transformation is pure, and
//     aggregation sorts by (file, line, col) after the barrier.
//   - Never panic: each unit runs under a recover boundary that converts a
//     transformer panic into a positioned DiagInternal diagnostic for that
//     file; the run continues and the process exit code reflects it.
//   - Incremental rebuilds: with a cache directory configured, a file
//     whose content key (SHA-256 of source + transformer version, see
//     cache.go) has a record in the cache log replays its recorded output
//     and diagnostics without parsing anything, so warm runs over an
//     unchanged module do near-zero work and touching one file
//     re-transforms exactly one file.
package modpipe

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"runtime/debug"
	"sort"

	gomp "repro"
	"repro/internal/directive"
	"repro/internal/sema"
	"repro/internal/transform"
)

// Options configures a module run.
type Options struct {
	// Workers is the transform team size (the -j flag); 0 uses the
	// runtime's default (OMP_NUM_THREADS / GOMAXPROCS).
	Workers int
	// CacheDir enables the incremental rebuild cache when non-empty.
	CacheDir string
	// OutDir mirrors transformed files under this directory when
	// non-empty; empty means diagnose-only (no outputs written).
	OutDir string
	// Transform configures the per-file transformer (facade package name
	// and import path). Zero value means transform.DefaultOptions.
	Transform transform.Options
	// OnTransform, when non-nil, is invoked (from worker goroutines;
	// must be safe for concurrent use) once per file actually
	// transformed — cache hits do not fire it. Tests hook re-transform
	// counts through this.
	OnTransform func(rel string)
	// Sema selects the semantic-analysis phase. Off (the zero value)
	// skips it; Strict turns clause/type mismatches into errors and
	// withholds the offending files' outputs; Warn reports the same
	// findings at warning severity without blocking anything. Any value
	// set on Transform.Sema is ignored: the pipeline checks whole
	// package units itself.
	Sema sema.Mode
	// OnSemaCheck, when non-nil, is invoked (from worker goroutines;
	// must be safe for concurrent use) once per package unit actually
	// type-checked — sema cache hits do not fire it.
	OnSemaCheck func(label string)
}

// FileResult is one file's outcome.
type FileResult struct {
	Rel      string // slash-separated path relative to the module root
	Key      string // content-hash cache key
	Output   []byte // transformed source; nil when diagnostics blocked it
	Changed  bool   // output differs from input (the file had directives)
	CacheHit bool
	Panicked bool // a recovered transformer panic produced the diagnostics
	// SemaBlocked marks a file whose package unit had error-severity sema
	// findings under strict mode: its Output is withheld (nil) and no
	// mirror is written, though the transform itself still ran and its
	// cache entry is intact.
	SemaBlocked bool
	Diags       directive.DiagnosticList
}

// Result is a whole-module run.
type Result struct {
	Root        string
	Files       []*FileResult // in DiscoverFiles order (sorted by Rel)
	Diags       directive.DiagnosticList
	Transformed int // units that ran the transformer
	CacheHits   int
	Panics      int
	// Sema phase statistics (all zero when Options.Sema was Off).
	SemaUnits     int // package units planned
	SemaChecked   int // units actually type-checked this run
	SemaCacheHits int // units replayed from the sema cache
}

// ErrorCount returns the number of error-severity diagnostics.
func (r *Result) ErrorCount() int { return r.Diags.ErrorCount() }

// Run executes the pipeline over the module rooted at root. The returned
// error covers infrastructure failures only (unreadable root, unwritable
// output); source problems — including transformer panics — are
// diagnostics in the Result.
func Run(root string, opts Options) (*Result, error) {
	if opts.Transform.Package == "" {
		opts.Transform = transform.DefaultOptions()
	}
	// Package-level semantic analysis is this pipeline's phase (the unit
	// is the package, not the file); force the per-file transformer's own
	// sema stage off so transform outputs and cache entries stay
	// mode-independent.
	semaMode := opts.Sema
	opts.Transform.Sema = sema.Off

	rels, err := discover(root, opts.OutDir, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	c := openCache(opts.CacheDir)
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return nil, err
		}
	}

	res := &Result{Root: root, Files: make([]*FileResult, len(rels))}
	// One error slot per unit: worker-side I/O failures surface after the
	// join as a real error, not a diagnostic.
	errs := make([]error, len(rels))
	parOpts := []any{gomp.Schedule(gomp.Steal, 0)}
	if opts.Workers > 0 {
		parOpts = append(parOpts, gomp.NumThreads(opts.Workers))
	}

	// Read phase, parallel: each source is read, hashed once, keyed, probed.
	units := make([]unit, len(rels))
	gomp.ParallelFor(len(rels), func(i int, _ *gomp.Thread) {
		errs[i] = units[i].load(root, rels[i], opts.Transform, c)
	}, parOpts...)
	if err := firstErr(rels, errs); err != nil {
		return nil, err
	}

	// Sema phase: type-check package units, replaying cached unit
	// outcomes; yields the aggregated findings (at their mode's
	// severity), the strict-mode blocked set and the new cache records.
	var blocked map[string]bool
	var log []byte
	if semaMode != sema.Off {
		var semaDiags directive.DiagnosticList
		semaDiags, blocked, log = runSemaPhase(res, units, semaMode, opts, c, parOpts)
		res.Diags = append(res.Diags, semaDiags...)
	}

	// Transform phase.
	gomp.ParallelFor(len(rels), func(i int, _ *gomp.Thread) {
		res.Files[i], errs[i] = runUnit(&units[i], opts, blocked[rels[i]])
	}, parOpts...)
	if err := firstErr(rels, errs); err != nil {
		return nil, err
	}

	for i, f := range res.Files {
		if f.CacheHit {
			res.CacheHits++
		} else {
			res.Transformed++
			if c != nil {
				log = appendRecord(log, recFile, units[i].key, f.Rel, &units[i].entry)
			}
		}
		if f.Panicked {
			res.Panics++
		}
		res.Diags = append(res.Diags, f.Diags...)
		// Strict mode withholds a blocked file's output from the caller, but
		// its record (which strict and warn runs share) keeps the real one.
		if f.SemaBlocked {
			f.Output = nil
		}
	}
	res.Diags.Sort()
	// A fully-warm run has no new record and writes nothing: its cost is
	// file reads, hashing and output mirroring only.
	if len(log) > 0 {
		if err := c.append(log); err != nil {
			return nil, fmt.Errorf("modpipe: appending to the cache log: %w", err)
		}
	}
	return res, nil
}

// firstErr surfaces the first per-unit worker error, positioned by file.
func firstErr(rels []string, errs []error) error {
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("modpipe: %s: %w", rels[i], e)
		}
	}
	return nil
}

// unit is one file's state between the phases.
type unit struct {
	rel      string
	src      []byte
	sum, key cacheKey // SHA-256 of src — the run's one hash of it — and the content key
	hit      bool
	entry    // the cached outcome on a hit, the transform's on a miss
}

// load is one file's read phase: read, hash, key, probe. A hit's record
// holds the package name the sema phase groups by; a miss parses it.
func (u *unit) load(root, rel string, topts transform.Options, c *cache) (err error) {
	u.rel = rel
	if u.src, err = os.ReadFile(filepath.Join(root, filepath.FromSlash(rel))); err != nil {
		return err
	}
	u.sum = sha256.Sum256(u.src)
	u.key = contentKey(transform.Version, sema.Version, topts, rel, u.sum)
	if e := c.lookup(recFile, u.key); e != nil {
		u.hit, u.entry = true, *e
	} else if f, perr := parser.ParseFile(token.NewFileSet(), rel, u.src, parser.PackageClauseOnly); perr == nil && f.Name != nil {
		u.pkg = f.Name.Name
	}
	return nil
}

// semaUnit is one package-level check unit: every module file in one
// directory sharing one package clause.
type semaUnit struct {
	label   string   // "dir:package", e.g. "p001:p001"
	key     cacheKey // sema cache key (set during the phase)
	members []*unit  // in DiscoverFiles (sorted) order
}

// runSemaPhase groups files into package units, checks each unit (or
// replays its cached outcome) in parallel, and folds the results into the
// mode's view: strict keeps errors and computes the blocked file set,
// warn demotes copies. Files whose package clause does not parse are
// skipped — the transform phase owns their syntax diagnostics. With a
// cache, the checked units' records come back encoded, in label order.
func runSemaPhase(res *Result, files []unit, mode sema.Mode, opts Options, c *cache, parOpts []any) (directive.DiagnosticList, map[string]bool, []byte) {
	units := map[string]*semaUnit{}
	var ordered []*semaUnit
	for i := range files {
		f := &files[i]
		if f.pkg == "" {
			continue
		}
		label := path.Dir(f.rel) + ":" + f.pkg
		u := units[label]
		if u == nil {
			u = &semaUnit{label: label}
			units[label] = u
			ordered = append(ordered, u)
		}
		u.members = append(u.members, f)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].label < ordered[j].label })
	res.SemaUnits = len(ordered)

	// Each unit writes only its own slot; aggregation below is serial.
	results := make([]directive.DiagnosticList, len(ordered))
	hits := make([]bool, len(ordered))
	gomp.ParallelFor(len(ordered), func(i int, _ *gomp.Thread) {
		u := ordered[i]
		u.key = semaUnitKey(sema.Version, u.label, u.members)
		if e := c.lookup(recSema, u.key); e != nil {
			hits[i] = true
			results[i] = e.diags
			return
		}
		if opts.OnSemaCheck != nil {
			opts.OnSemaCheck(u.label)
		}
		srcs := make(map[string][]byte, len(u.members))
		for _, m := range u.members {
			srcs[m.rel] = m.src
		}
		results[i] = sema.Check(srcs).Diagnose()
	}, parOpts...)

	var diags directive.DiagnosticList
	var log []byte
	blocked := map[string]bool{}
	for i, u := range ordered {
		if hits[i] {
			res.SemaCacheHits++
		} else {
			res.SemaChecked++
			if c != nil {
				log = appendRecord(log, recSema, u.key, u.label, &entry{diags: results[i]})
			}
		}
		if mode == sema.Strict {
			for _, d := range results[i] {
				if d.Severity == directive.SevError {
					blocked[d.File] = true
				}
			}
			diags = append(diags, results[i]...)
		} else {
			diags = append(diags, sema.Demote(results[i])...)
		}
	}
	return diags, blocked, log
}

// runUnit is one file's transform unit: replay the hit or transform under
// the recover boundary, then mirror the output. blocked marks a file
// withheld by strict sema: its transform (and cache record) proceed
// normally but no mirror is written.
func runUnit(u *unit, opts Options, blocked bool) (*FileResult, error) {
	if !u.hit {
		if opts.OnTransform != nil {
			opts.OnTransform(u.rel)
		}
		u.out, _, u.diags, u.panicked = TransformOne(u.rel, u.src, opts.Transform)
	}
	fr := &FileResult{Rel: u.rel, Key: hex.EncodeToString(u.key[:]), CacheHit: u.hit, SemaBlocked: blocked,
		Output: u.out, Changed: u.out != nil && !bytes.Equal(u.out, u.src), Panicked: u.panicked, Diags: u.diags}

	if opts.OutDir != "" && fr.Output != nil && !blocked {
		dst := filepath.Join(opts.OutDir, filepath.FromSlash(u.rel))
		// Warm runs mirror into an out tree that usually already matches;
		// leaving an identical file untouched halves the warm I/O and
		// keeps downstream build mtimes stable.
		if prev, rerr := os.ReadFile(dst); rerr == nil && bytes.Equal(prev, fr.Output) {
			return fr, nil
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(dst, fr.Output, 0o644); err != nil {
			return nil, err
		}
	}
	return fr, nil
}

// TransformOne runs the single-file transformer under the never-panic
// boundary. A recovered panic yields (nil output, one DiagInternal
// positioned diagnostic, panicked=true) — the contract the stress suite
// and FuzzModpipeFile hold: for any input bytes, the front end transforms
// or diagnoses, it never crashes the process.
func TransformOne(name string, src []byte, topts transform.Options) (out []byte, changed bool, diags directive.DiagnosticList, panicked bool) {
	return transformGuarded(name, src, func() ([]byte, error) {
		return transform.File(name, src, topts)
	})
}

// transformGuarded is the recover boundary itself, with the transform
// injectable so tests can drive the panic path directly (no corpus input
// is known to panic the transformer — that is what the stress suite
// enforces).
func transformGuarded(name string, src []byte, fn func() ([]byte, error)) (out []byte, changed bool, diags directive.DiagnosticList, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			out, changed, panicked = nil, false, true
			diags = directive.DiagnosticList{{
				File: name, Line: 1, Col: 1, Span: 1,
				Kind: directive.DiagInternal, Severity: directive.SevError,
				Msg: fmt.Sprintf("transformer panicked: %v\n%s", r, firstLines(debug.Stack(), 8)),
			}}
		}
	}()
	res, err := fn()
	if err != nil {
		return nil, false, asDiagnostics(name, err), false
	}
	return res, !bytes.Equal(res, src), nil, false
}

// asDiagnostics normalises a transform error into a positioned list; plain
// errors (not DiagnosticLists) become a file-level diagnostic so module
// aggregation never loses one.
func asDiagnostics(name string, err error) directive.DiagnosticList {
	switch e := err.(type) {
	case directive.DiagnosticList:
		return e
	case *directive.Diagnostic:
		return directive.DiagnosticList{e}
	default:
		return directive.DiagnosticList{{
			File: name, Line: 1, Col: 1, Span: 1,
			Kind: directive.DiagSyntax, Severity: directive.SevError,
			Msg: err.Error(),
		}}
	}
}

// firstLines trims a stack trace for diagnostic embedding.
func firstLines(b []byte, n int) []byte {
	for i, c := range b {
		if c == '\n' {
			if n--; n == 0 {
				return b[:i]
			}
		}
	}
	return b
}
