package modpipe

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/directive"
	"repro/internal/modpipe/corpusgen"
	"repro/internal/sema"
	"repro/internal/transform"
)

// stressFiles sizes the big never-panic corpus. The acceptance bar is the
// ~2,000-file module; the -race CI leg runs the same test with the same
// size (it is a few seconds of transform work, parallel).
const stressFiles = 2000

// genCorpus writes a corpus module under a fresh temp dir.
func genCorpus(t testing.TB, files int, seed int64) (string, *corpusgen.Manifest) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "corpus")
	m, err := corpusgen.Generate(root, corpusgen.Config{Files: files, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return root, m
}

// TestNeverPanicStress runs the full pipeline over the 2,000-file corpus
// (clean + valid + malformed + pathological): zero panics escape (the run
// completing at all proves that; zero recovered panics proves the
// transformer handled every shape without tripping the boundary), every
// malformed file yields at least one positioned error diagnostic, and
// ErrorCount is exactly what a process exit code would reflect.
func TestNeverPanicStress(t *testing.T) {
	root, m := genCorpus(t, stressFiles, 42)
	res, err := Run(root, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) != stressFiles {
		t.Fatalf("pipeline saw %d files, corpus has %d", len(res.Files), stressFiles)
	}
	if res.Panics != 0 {
		t.Errorf("%d transformer panics were recovered; the corpus should transform-or-diagnose without tripping the boundary", res.Panics)
	}

	byRel := make(map[string]*FileResult, len(res.Files))
	for _, f := range res.Files {
		byRel[f.Rel] = f
	}
	for _, cf := range m.Files {
		f := byRel[cf.Rel]
		if f == nil {
			t.Fatalf("corpus file %s missing from pipeline results", cf.Rel)
		}
		switch cf.Kind {
		case corpusgen.Malformed:
			if f.Diags.ErrorCount() == 0 {
				t.Errorf("malformed file %s yielded no error diagnostic", cf.Rel)
			}
			for _, d := range f.Diags {
				if d.Line < 1 || d.Col < 1 || d.File != cf.Rel {
					t.Errorf("malformed file %s: diagnostic not positioned: %+v", cf.Rel, d)
				}
			}
		// IllTyped files are clean with sema off (this run's mode): their
		// badness is clause/type-level, which only the sema phase sees.
		case corpusgen.Clean, corpusgen.Directives, corpusgen.IllTyped, corpusgen.Pathological:
			if n := f.Diags.ErrorCount(); n != 0 {
				t.Errorf("%s file %s yielded %d unexpected errors: %v", cf.Kind, cf.Rel, n, f.Diags)
			}
			if f.Output == nil {
				t.Errorf("%s file %s produced no output", cf.Kind, cf.Rel)
			}
		}
	}

	// The exit-code contract: errors came only from the malformed portion,
	// and the count the CLI reports is the sorted aggregate's ErrorCount.
	if res.ErrorCount() == 0 {
		t.Error("corpus contains malformed files but ErrorCount is 0")
	}
	wantErrs := 0
	for _, f := range res.Files {
		wantErrs += f.Diags.ErrorCount()
	}
	if res.ErrorCount() != wantErrs {
		t.Errorf("aggregate ErrorCount %d != per-file sum %d", res.ErrorCount(), wantErrs)
	}
}

// TestNeverPanicWorkerSweep runs the pipeline at every worker count from
// 1 to 8 over a mid-size mixed corpus: no escaped panics, no recovered
// panics, and identical error counts at every team size. Together with
// TestNeverPanicStress (the full 2,000-file module at 8 workers) this is
// the never-panic stress satellite; CI runs both under -race.
func TestNeverPanicWorkerSweep(t *testing.T) {
	root, m := genCorpus(t, 240, 17)
	var refErrs int
	for workers := 1; workers <= 8; workers++ {
		res, err := Run(root, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Panics != 0 {
			t.Errorf("workers=%d: %d recovered panics", workers, res.Panics)
		}
		if len(res.Files) != len(m.Files) {
			t.Errorf("workers=%d: saw %d files, want %d", workers, len(res.Files), len(m.Files))
		}
		if workers == 1 {
			refErrs = res.ErrorCount()
			if refErrs == 0 {
				t.Fatal("sweep corpus produced no errors; malformed files missing?")
			}
			continue
		}
		if res.ErrorCount() != refErrs {
			t.Errorf("workers=%d: %d errors, serial run had %d", workers, res.ErrorCount(), refErrs)
		}
	}
}

// digestResult flattens a run into comparable strings: a content digest of
// every output file and the diagnostic list rendered in order.
func digestResult(t testing.TB, res *Result, outDir string) (outputs string, diags string) {
	t.Helper()
	h := sha256.New()
	for _, f := range res.Files {
		var sum [32]byte
		if f.Output != nil {
			sum = sha256.Sum256(f.Output)
		}
		fmt.Fprintf(h, "%s\x00%x\x00", f.Rel, sum)
		if outDir != "" && f.Output != nil {
			disk, err := os.ReadFile(filepath.Join(outDir, filepath.FromSlash(f.Rel)))
			if err != nil {
				t.Fatalf("output file missing for %s: %v", f.Rel, err)
			}
			if sha256.Sum256(disk) != sum {
				t.Fatalf("output file on disk differs from in-memory result for %s", f.Rel)
			}
		}
	}
	for _, d := range res.Diags {
		diags += d.Error() + "\n"
	}
	return fmt.Sprintf("%x", h.Sum(nil)), diags
}

// TestDeterminismAcrossWorkerCounts transforms the corpus serially and
// with 2, 4 and 8 workers, across three seeds: output bytes (in memory
// and on disk) and the ordered diagnostic list must be identical at every
// worker count.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		root, _ := genCorpus(t, 160, seed)
		var refOut, refDiags string
		for _, workers := range []int{1, 2, 4, 8} {
			outDir := filepath.Join(t.TempDir(), fmt.Sprintf("out-s%d-w%d", seed, workers))
			res, err := Run(root, Options{Workers: workers, OutDir: outDir})
			if err != nil {
				t.Fatal(err)
			}
			outputs, diags := digestResult(t, res, outDir)
			if workers == 1 {
				refOut, refDiags = outputs, diags
				if res.ErrorCount() == 0 {
					t.Fatalf("seed %d: corpus produced no diagnostics; determinism check is vacuous", seed)
				}
				continue
			}
			if outputs != refOut {
				t.Errorf("seed %d: outputs at %d workers differ from serial run", seed, workers)
			}
			if diags != refDiags {
				t.Errorf("seed %d: diagnostics at %d workers differ from serial run:\n--- serial ---\n%s--- %d workers ---\n%s",
					seed, workers, refDiags, workers, diags)
			}
		}
	}
}

// countingHook returns an OnTransform hook and a getter for the count.
func countingHook() (func(string), func() []string) {
	var mu sync.Mutex
	var rels []string
	return func(rel string) {
			mu.Lock()
			rels = append(rels, rel)
			mu.Unlock()
		}, func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), rels...)
		}
}

// TestIncrementalCache walks the cache contract end to end: cold run
// transforms everything; warm run transforms nothing; touching one file
// re-transforms exactly that file; reverting the content restores the
// hit; a log in another format is cold, not fatal. Whatever ran, the cache
// directory holds one regular file: no per-entry file exists.
func TestIncrementalCache(t *testing.T) {
	root, m := genCorpus(t, 80, 5)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	run := func() (*Result, []string) {
		hook, got := countingHook()
		res, err := Run(root, Options{Workers: 4, CacheDir: cacheDir, OnTransform: hook})
		if err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(cacheDir)
		if err != nil || len(ents) != 1 || !ents[0].Type().IsRegular() || ents[0].Name() != logName {
			t.Fatalf("cache directory must hold exactly the log, got %v (err %v)", ents, err)
		}
		return res, got()
	}

	cold, transformed := run()
	if len(transformed) != len(m.Files) {
		t.Fatalf("cold run transformed %d files, want %d", len(transformed), len(m.Files))
	}
	coldDiags := cold.Diags.Error()

	warm, transformed := run()
	if len(transformed) != 0 {
		t.Fatalf("warm run re-transformed %d files, want 0: %v", len(transformed), transformed)
	}
	if warm.CacheHits != len(m.Files) {
		t.Fatalf("warm run: %d cache hits, want %d", warm.CacheHits, len(m.Files))
	}
	if warm.Diags.Error() != coldDiags {
		t.Error("warm run replayed different diagnostics than the cold run")
	}

	// Touch one file (content change): exactly one re-transform.
	victim := m.Files[3].Rel
	victimPath := filepath.Join(root, filepath.FromSlash(victim))
	orig, err := os.ReadFile(victimPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victimPath, append([]byte("// touched\n"), orig...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, transformed = run()
	if len(transformed) != 1 || transformed[0] != victim {
		t.Fatalf("after touching %s, re-transformed %v, want exactly that file", victim, transformed)
	}

	// Revert the content: pure hit again (content addressing, not mtimes).
	if err := os.WriteFile(victimPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	_, transformed = run()
	if len(transformed) != 0 {
		t.Fatalf("after reverting %s, re-transformed %v, want none", victim, transformed)
	}

	// A log in a format this build does not know (here: an older layout's
	// index): treated as cold, never fatal, and replaced.
	if err := os.WriteFile(filepath.Join(cacheDir, logName), []byte(`{"format": "gompcc-cache-v1", "entries": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	res, transformed := run()
	if len(transformed) != len(m.Files) {
		t.Fatalf("unknown-format log: re-transformed %d files, want all %d", len(transformed), len(m.Files))
	}
	if res.Diags.Error() != coldDiags {
		t.Error("run over an unknown-format log produced different diagnostics")
	}
	// ...and the rewritten cache works again.
	if _, transformed = run(); len(transformed) != 0 {
		t.Fatalf("cache did not recover: re-transformed %v", transformed)
	}

	// The log is written after the join from the ordered results: another
	// worker count writes the same bytes.
	healed, err := os.ReadFile(filepath.Join(cacheDir, logName))
	if err != nil {
		t.Fatal(err)
	}
	serialDir := filepath.Join(t.TempDir(), "cache-w1")
	if _, err := Run(root, Options{Workers: 1, CacheDir: serialDir}); err != nil {
		t.Fatal(err)
	}
	if serial, err := os.ReadFile(filepath.Join(serialDir, logName)); err != nil || !bytes.Equal(serial, healed) {
		t.Errorf("cache logs written at 1 and 4 workers differ (err %v)", err)
	}
}

// TestCacheVersionBump proves a transformer-version change moves every
// key: a cache written under one version is entirely cold under another.
func TestCacheVersionBump(t *testing.T) {
	root, m := genCorpus(t, 40, 9)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// contentKey is what Run keys on; simulate the version bump at the
	// key level and at the pipeline level. First, prime under the real
	// version.
	hook, got := countingHook()
	if _, err := Run(root, Options{CacheDir: cacheDir, OnTransform: hook}); err != nil {
		t.Fatal(err)
	}
	if len(got()) != len(m.Files) {
		t.Fatalf("priming run transformed %d, want %d", len(got()), len(m.Files))
	}

	// Every key depends on transform.Version: assert the key function
	// moves for any content when the version moves, which is exactly the
	// wholesale invalidation Run performs (it recomputes keys with the
	// compiled-in version and misses on every entry).
	sum := sha256.Sum256([]byte("package p\n"))
	tkey := transform.Options{Package: "gomp", ImportPath: "repro"}
	base := contentKey(transform.Version, sema.Version, tkey, "a.go", sum)
	if base == contentKey(transform.Version+"-next", sema.Version, tkey, "a.go", sum) {
		t.Fatal("contentKey ignores the transformer version")
	}
	// Bumping the sema version must invalidate warm entries wholesale too.
	if base == contentKey(transform.Version, sema.Version+"-next", tkey, "a.go", sum) {
		t.Fatal("contentKey ignores the sema version")
	}
	// And the facade options are part of the key too.
	if base == contentKey(transform.Version, sema.Version, transform.Options{Package: "omp", ImportPath: "other"}, "a.go", sum) {
		t.Fatal("contentKey ignores transform options")
	}

	// Rewrite the log as an older transformer would have written it: the
	// same well-formed records, every one under the key that version
	// derives. The next run must be fully cold.
	logPath := filepath.Join(cacheDir, logName)
	c := openCache(cacheDir)
	var stale []byte
	for _, r := range logRecords(t, readFile(t, logPath)) {
		e := c.lookup(recFile, r.key)
		if e == nil {
			t.Fatalf("record %s does not load", r.name)
		}
		stale = appendRecord(stale, recFile, contentKey("0.old", sema.Version, tkey, r.name, r.key), r.name, e)
	}
	if err := os.WriteFile(logPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if c := openCache(cacheDir); len(c.recs) != len(m.Files) || c.valid != len(stale) {
		t.Fatalf("re-keyed log must load whole: %d records, %d of %d bytes", len(c.recs), c.valid, len(stale))
	}
	hook2, got2 := countingHook()
	if _, err := Run(root, Options{CacheDir: cacheDir, OnTransform: hook2}); err != nil {
		t.Fatal(err)
	}
	if len(got2()) != len(m.Files) {
		t.Fatalf("stale-version cache: re-transformed %d files, want all %d", len(got2()), len(m.Files))
	}
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// logRec is one record of a cache log as logRecords finds it.
type logRec struct {
	off, end int
	kind     byte
	key      cacheKey
	name     string // relative path or unit label
}

// logRecords walks an intact log by its length fields alone: the loader is
// the code under test, so the damage tests place their cuts with this.
func logRecords(t testing.TB, buf []byte) []logRec {
	t.Helper()
	var recs []logRec
	for off := 0; off < len(buf); {
		if len(buf)-off < recHeader+recFixed {
			t.Fatalf("log ends inside a record at %d of %d", off, len(buf))
		}
		p := buf[off+recHeader:]
		r := logRec{off: off, end: off + recHeader + int(le.Uint32(buf[off+4:])), kind: p[0], key: cacheKey(p[2:34])}
		r.name = string(p[recFixed : recFixed+int(le.Uint32(p[34:]))])
		recs = append(recs, r)
		off = r.end
	}
	return recs
}

// TestCacheLogDamage cuts the log at seeded offsets (a record boundary,
// inside a header, inside a payload) and flips a seeded byte: each run
// over the damage is correct, redoes exactly the records at and after it —
// units re-checked for sema records, files re-transformed for file records
// — and heals the log to its intact bytes, so the run after is fully warm.
func TestCacheLogDamage(t *testing.T) {
	root, m := genCorpus(t, 60, 5)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	logPath := filepath.Join(cacheDir, logName)
	run := func() (*Result, []string, []string) {
		thook, transformed := countingHook()
		shook, checked := countingHook()
		res, err := Run(root, Options{Workers: 4, CacheDir: cacheDir, Sema: sema.Strict,
			OnTransform: thook, OnSemaCheck: shook})
		if err != nil {
			t.Fatal(err)
		}
		tr, ch := transformed(), checked()
		sort.Strings(tr)
		sort.Strings(ch)
		return res, tr, ch
	}
	cold, _, _ := run()
	wantOut, wantDiags := digestResult(t, cold, "")
	intact := readFile(t, logPath)
	recs := logRecords(t, intact)
	units := cold.SemaUnits
	if len(recs) != units+len(m.Files) || recs[units-1].kind != recSema || recs[units].kind != recFile {
		t.Fatalf("cold log: %d records, want %d sema then %d file", len(recs), units, len(m.Files))
	}

	rng := rand.New(rand.NewSource(7))
	damages := []struct {
		name  string
		apply func(r logRec) []byte
	}{
		{"cut at a record boundary", func(r logRec) []byte { return intact[:r.off] }},
		{"cut inside a header", func(r logRec) []byte { return intact[:r.off+1+rng.Intn(recHeader-1)] }},
		{"cut inside a payload", func(r logRec) []byte { return intact[:r.off+recHeader+rng.Intn(r.end-r.off-recHeader)] }},
		{"flipped byte", func(r logRec) []byte {
			b := bytes.Clone(intact)
			b[r.off+rng.Intn(r.end-r.off)] ^= 1 << rng.Intn(8)
			return b
		}},
	}
	for _, d := range damages {
		// One cut among the sema records, two among the file records.
		for _, k := range []int{rng.Intn(units), units + rng.Intn(len(m.Files)), units + rng.Intn(len(m.Files))} {
			if err := os.WriteFile(logPath, d.apply(recs[k]), 0o644); err != nil {
				t.Fatal(err)
			}
			var wantChecked, wantTransformed []string
			for _, r := range recs[k:] {
				if r.kind == recSema {
					wantChecked = append(wantChecked, r.name)
				} else {
					wantTransformed = append(wantTransformed, r.name)
				}
			}
			sort.Strings(wantChecked)
			sort.Strings(wantTransformed)
			res, transformed, checked := run()
			if fmt.Sprint(transformed) != fmt.Sprint(wantTransformed) || fmt.Sprint(checked) != fmt.Sprint(wantChecked) {
				t.Fatalf("%s, record %d of %d: re-checked %d units and re-transformed %d files, want %d and %d (exactly the records at and after the damage)",
					d.name, k, len(recs), len(checked), len(transformed), len(wantChecked), len(wantTransformed))
			}
			if out, diags := digestResult(t, res, ""); out != wantOut || diags != wantDiags {
				t.Fatalf("%s, record %d: run over the damaged log differs from the cold run", d.name, k)
			}
			if !bytes.Equal(readFile(t, logPath), intact) {
				t.Fatalf("%s, record %d: the log did not heal to its intact bytes", d.name, k)
			}
			if _, transformed, checked = run(); len(transformed)+len(checked) != 0 {
				t.Fatalf("%s, record %d: run after the healing one redid %d files and %d units", d.name, k, len(transformed), len(checked))
			}
		}
	}
}

// TestConcurrentRunsShareCache runs two pipelines at once on one cold cache
// directory: both succeed and reproduce the one-worker build, and the log
// they leave is whole — the next run is correct and fully warm.
func TestConcurrentRunsShareCache(t *testing.T) {
	root, m := genCorpus(t, 60, 21)
	oracle, err := Run(root, Options{Workers: 1, Sema: sema.Strict})
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantDiags := digestResult(t, oracle, "")
	opts := Options{Workers: 2, CacheDir: filepath.Join(t.TempDir(), "cache"), Sema: sema.Strict}

	var results [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(root, opts)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if out, diags := digestResult(t, res, ""); out != wantOut || diags != wantDiags {
			t.Errorf("concurrent run %d differs from the Workers:1 build", i)
		}
	}
	next, err := Run(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if next.CacheHits != len(m.Files) || next.Transformed != 0 || next.SemaChecked != 0 {
		t.Errorf("run after the concurrent pair: %d hits, %d transformed, %d units checked; want fully warm", next.CacheHits, next.Transformed, next.SemaChecked)
	}
	if out, diags := digestResult(t, next, ""); out != wantOut || diags != wantDiags {
		t.Error("run after the concurrent pair differs from the Workers:1 build")
	}
}

// TestRunSkipsOwnOutputs: with the mirror and the cache inside the module,
// the next run must not discover what the last one wrote.
func TestRunSkipsOwnOutputs(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "main.go"), []byte("package main\n\nfunc main() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{OutDir: filepath.Join(root, "out"), CacheDir: filepath.Join(root, "cache")}
	for i := 1; i <= 3; i++ {
		res, err := Run(root, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Files) != 1 || res.Files[0].Rel != "main.go" {
			t.Fatalf("run %d saw %d files, want main.go alone", i, len(res.Files))
		}
		if _, err := os.Stat(filepath.Join(root, "out", "main.go")); err != nil {
			t.Fatalf("run %d: mirror missing: %v", i, err)
		}
		if _, err := os.Stat(filepath.Join(root, "out", "out")); err == nil {
			t.Fatalf("run %d mirrored its own mirror", i)
		}
	}
}

// TestRecoverBoundary injects a panicking transform through TransformOne
// and checks the conversion contract directly.
func TestRecoverBoundary(t *testing.T) {
	out, changed, diags, panicked := TransformOne("x.go", []byte("package p\n"), transform.Options{Package: "gomp", ImportPath: "repro"})
	if out == nil || changed || len(diags) != 0 || panicked {
		t.Fatalf("clean file mishandled: out=%v changed=%v diags=%v panicked=%v", out != nil, changed, diags, panicked)
	}

	// A panic inside the boundary must become one positioned DiagInternal.
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic escaped the boundary: %v", r)
			}
		}()
		out, _, diags, panicked = transformOnePanicking(t)
	}()
	if out != nil || !panicked {
		t.Fatalf("panicking transform: out=%v panicked=%v", out != nil, panicked)
	}
	if len(diags) != 1 || diags[0].Kind != directive.DiagInternal || diags[0].File != "boom.go" || diags[0].Line != 1 {
		t.Fatalf("panic diagnostic malformed: %+v", diags)
	}
}

// transformOnePanicking drives the recover boundary with an injected
// panic. There is no known input that panics the transformer (that is the
// point of the stress suite), so the bug is simulated.
func transformOnePanicking(t *testing.T) (out []byte, changed bool, diags directive.DiagnosticList, panicked bool) {
	t.Helper()
	return transformGuarded("boom.go", nil, func() ([]byte, error) {
		panic("injected transformer bug")
	})
}
