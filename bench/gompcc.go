package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"

	"repro/internal/directive"
	"repro/internal/modpipe"
	"repro/internal/modpipe/corpusgen"
	"repro/internal/sema"
)

// gompccModule is the compiler half of the paper at module scale: the
// whole-module pipeline over a seeded corpus, built cold (empty cache, strict
// sema, outputs mirrored), compiled again writing nothing, re-run warm
// (nothing changed) and re-run after a change to one file.
//
// On the sandbox's file system (ext4 mounted with discard, in a VM) creating
// the cold build's 2400 cache and mirror files takes 0.4 to 1.1 s depending
// on the hour and on what was deleted in the last minute — as long as the
// compile itself, and nothing a change to this repository can move. So the
// cold build is timed on fresh directories and reported (cold_files_per_s,
// modpipe.cold_ms), but the bounded form is the compile that writes nothing.
// Directories are deleted, and the file system synced, outside every timed
// form, and set-ups overwrite one corpus in place instead of deleting and
// recreating it.
type gompccModule struct {
	c        *config
	dir      string // <tmp>/gompcc; corpus/ is reused, builds/ holds a round's cache and mirror
	root     string
	manifest *corpusgen.Manifest
	touch    []string          // the corpus in seeded order: the touch-one runs edit the next file each
	want     [sha256.Size]byte // digest of the one-worker build: what every build must reproduce
}

func (w *gompccModule) setup(c *config) error {
	w.c = c
	w.dir = filepath.Join(c.tmp, "gompcc")
	w.root = filepath.Join(w.dir, "corpus")
	m, err := corpusgen.Generate(w.root, corpusgen.Config{Files: c.sz.corpusFiles, Seed: c.seed})
	if err != nil {
		return fmt.Errorf("generate corpus: %w", err)
	}
	w.manifest = m
	rng := rand.New(rand.NewSource(c.seed))
	w.touch = w.touch[:0]
	for _, i := range rng.Perm(len(m.Files)) {
		w.touch = append(w.touch, m.Files[i].Rel)
	}
	// The oracle of every build below: the corpus compiled by one worker.
	one, err := modpipe.Run(w.root, modpipe.Options{Workers: 1, Sema: sema.Strict})
	if err != nil {
		return fmt.Errorf("one-worker build: %w", err)
	}
	w.want = digest(one)
	return nil
}

func (w *gompccModule) close() {
	if w.dir != "" {
		os.RemoveAll(filepath.Join(w.dir, "builds"))
		syscall.Sync()
	}
}

// coldEvery is how many rounds share one cold build's cache: the cold build
// is the costliest form and the only one that is not bounded, so two rounds
// in three leave their time to the forms that are.
const coldEvery = 3

// digest folds every file's path, emitted bytes and diagnostics into one
// hash: two builds agree byte for byte exactly when their digests do.
func digest(res *modpipe.Result) [sha256.Size]byte {
	h := sha256.New()
	for _, f := range res.Files {
		fmt.Fprintf(h, "%s %d %v\n", f.Rel, len(f.Output), f.Output == nil)
		h.Write(f.Output)
	}
	for _, d := range res.Diags {
		fmt.Fprintln(h, d.Error())
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// checkBuild holds the first build against oracles that are not the build
// itself: go/parser on every emitted file, the mirror on disk and the
// manifest's per-kind expectations.
func (w *gompccModule) checkBuild(p *pass, res *modpipe.Result, outDir string) {
	kinds := map[string]corpusgen.Kind{}
	for _, f := range w.manifest.Files {
		kinds[f.Rel] = f.Kind
	}
	p.verify(len(res.Files) == len(w.manifest.Files) && res.Panics == 0 && res.CacheHits == 0,
		"gompcc cold build: %d files of %d, %d panics, %d cache hits", len(res.Files), len(w.manifest.Files), res.Panics, res.CacheHits)
	// Sema findings belong to the package unit, so they are in the run's
	// diagnostic list, not in the file's own.
	semaErrsIn := map[string]int{}
	for _, d := range res.Diags {
		if d.Kind == directive.DiagSema && d.Severity == directive.SevError {
			semaErrsIn[d.File]++
		}
	}
	fset := token.NewFileSet()
	for _, f := range res.Files {
		errs, semaErrs := 0, semaErrsIn[f.Rel]
		for _, d := range f.Diags {
			if d.Severity == directive.SevError {
				errs++
			}
		}
		var good bool
		switch kinds[f.Rel] {
		case corpusgen.Malformed:
			good = errs > 0 && f.Output == nil
		case corpusgen.IllTyped:
			good = semaErrs > 0 && f.SemaBlocked && f.Output == nil
		default:
			good = errs == 0 && f.Output != nil
		}
		if good && f.Output != nil {
			_, err := parser.ParseFile(fset, f.Rel, f.Output, parser.SkipObjectResolution)
			mirrored, rerr := os.ReadFile(filepath.Join(outDir, filepath.FromSlash(f.Rel)))
			good = err == nil && rerr == nil && bytes.Equal(mirrored, f.Output)
		}
		p.verify(good, "gompcc cold build: %s (%v): %d errors (%d sema), output %d bytes, blocked %v, or it does not parse or is not mirrored",
			f.Rel, kinds[f.Rel], errs, semaErrs, len(f.Output), f.SemaBlocked)
	}
}

func (w *gompccModule) run(p *pass) {
	sz := w.c.sz
	files := len(w.manifest.Files)
	builds := filepath.Join(w.dir, "builds")
	opts := modpipe.Options{Workers: w.c.nproc, Sema: sema.Strict,
		CacheDir: filepath.Join(builds, "cache"), OutDir: filepath.Join(builds, "out")}
	p.rounds(func(r int) {
		var err error
		if r%coldEvery == 0 {
			// Fresh directories; the file system settles from the deletion
			// outside every timed form.
			w.close()
			var cold *modpipe.Result
			p.timed("modpipe.cold", func() { cold, err = modpipe.Run(w.root, opts) })
			if err != nil {
				p.verify(false, "gompcc cold build round %d: %v", r, err)
				return
			}
			// Byte for byte the one-worker build, every time: the compiler
			// is deterministic whatever the worker count.
			p.verify(cold.CacheHits == 0 && digest(cold) == w.want, "gompcc cold build round %d differs from the Workers:1 build", r)
			if r == 0 {
				w.checkBuild(p, cold, opts.OutDir)
				p.vals["modpipe.transformed"] = float64(cold.Transformed)
				p.vals["sema.units"] = float64(cold.SemaUnits)
				out := 0
				for _, f := range cold.Files {
					out += len(f.Output)
				}
				p.vals["transform.out_bytes"] = float64(out)
			}
		}
		var again *modpipe.Result
		p.timed("modpipe.compile", func() {
			again, err = modpipe.Run(w.root, modpipe.Options{Workers: w.c.nproc, Sema: sema.Strict})
		})
		p.verify(err == nil && digest(again) == w.want, "gompcc compile round %d differs from the Workers:1 build (err %v)", r, err)

		for i := 0; i < sz.warmReps; i++ {
			var warm *modpipe.Result
			p.timed("modpipe.warm", func() { warm, err = modpipe.Run(w.root, opts) })
			good := err == nil && warm.CacheHits == files && warm.Transformed == 0 && warm.SemaChecked == 0
			p.verify(good, "gompcc warm build round %d: not a full replay (err %v)", r, err)
			if good {
				p.vals["modpipe.cache_hits"] = float64(warm.CacheHits)
				p.vals["modpipe.sema_cache_hits"] = float64(warm.SemaCacheHits)
			}
		}

		for i := 0; i < sz.touchReps; i++ {
			// Other files every round, so that a run's median is over the
			// corpus's kinds of file and not over the ten a seed drew first.
			rel := w.touch[(r*sz.touchReps+i)%len(w.touch)]
			abs := filepath.Join(w.root, filepath.FromSlash(rel))
			orig, rerr := os.ReadFile(abs)
			if rerr != nil {
				p.verify(false, "gompcc touch-one: %v", rerr)
				continue
			}
			// The round's number keeps the edit new to a cache rounds share.
			edited := append(bytes.Clone(orig), fmt.Sprintf("\n// edited in round %d\n", r)...)
			if werr := os.WriteFile(abs, edited, 0o644); werr != nil {
				p.verify(false, "gompcc touch-one: %v", werr)
				continue
			}
			var retransformed atomic.Int64
			opts.OnTransform = func(string) { retransformed.Add(1) }
			var res *modpipe.Result
			p.timed("modpipe.touch1", func() { res, err = modpipe.Run(w.root, opts) })
			opts.OnTransform = nil
			good := err == nil && res.Transformed == 1 && retransformed.Load() == 1 && res.CacheHits == files-1
			p.verify(good, "gompcc touch-one round %d (%s): want exactly one file re-transformed (err %v)", r, rel, err)
			if good {
				p.vals["modpipe.touch1_retransformed"] = float64(res.Transformed)
			}
			// Put the file back, so every round compiles the same corpus.
			if werr := os.WriteFile(abs, orig, 0o644); werr != nil {
				p.verify(false, "gompcc touch-one restore: %v", werr)
			}
		}
	})
}

func (w *gompccModule) metrics(p *pass) map[string]measure {
	sz := w.c.sz
	files := float64(len(w.manifest.Files))
	compile, warm, touch := p.med("modpipe.compile"), p.med("modpipe.warm"), p.med("modpipe.touch1")
	return map[string]measure{
		// One developer session: a compile, then warmReps unchanged re-runs
		// and touchReps one-file edits, so the three forms carry comparable
		// shares of the total.
		"solve_s":             {compile.v + float64(sz.warmReps)*warm.v + float64(sz.touchReps)*touch.v, compile.n},
		"form_a_s":            compile,
		"form_b_s":            warm,
		"form_c_s":            touch,
		"cold_files_per_s":    p.rate("modpipe.cold", files),
		"compile_files_per_s": p.rate("modpipe.compile", files),
		"warm_ms":             p.scaled("modpipe.warm", 1e3),
		"touch1_ms":           p.scaled("modpipe.touch1", 1e3),
		"modpipe.cold_ms":     p.scaled("modpipe.cold", 1e3),
	}
}

func (w *gompccModule) probes(c *config) map[string]measure { return compilerProbes(c, w.root) }
