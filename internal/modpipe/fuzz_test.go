package modpipe

import (
	"bytes"
	"go/parser"
	"go/token"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/modpipe/corpusgen"
	"repro/internal/sema"
	"repro/internal/transform"
)

// FuzzModpipeFile holds the per-file pipeline contract on arbitrary bytes:
// TransformOne transforms or diagnoses — a panic either escapes (fuzzer
// crash) or trips the recover boundary, and the boundary must mark it.
// Seeds cover the whole corpus generator's vocabulary: every valid
// directive template, every malformed one and every ill-typed one. Each
// input also runs with strict sema, driving go/types over arbitrary bytes
// under the same never-panic bar.
func FuzzModpipeFile(f *testing.F) {
	for _, s := range corpusgen.ValidSeedFiles() {
		f.Add(s)
	}
	for _, s := range corpusgen.MalformedSeedFiles() {
		f.Add(s)
	}
	for _, s := range corpusgen.IllTypedSeedFiles() {
		f.Add(s)
	}
	f.Add("package p\n")
	f.Add("not go at all")
	f.Add("")
	strict := transform.DefaultOptions()
	strict.Sema = sema.Strict
	f.Fuzz(func(t *testing.T, src string) {
		for _, opts := range []transform.Options{transform.DefaultOptions(), strict} {
			out, _, diags, panicked := TransformOne("fuzz.go", []byte(src), opts)
			if panicked {
				// The boundary worked (no crash), but a panicking input is a
				// real transformer bug worth keeping: fail so the fuzzer
				// minimises and records it.
				t.Fatalf("transformer panicked (recovered, sema=%v) on:\n%s\ndiags: %v", opts.Sema, src, diags)
			}
			if out == nil && diags.ErrorCount() == 0 {
				t.Fatalf("no output and no error diagnostics (sema=%v) for:\n%s", opts.Sema, src)
			}
			if out != nil {
				fset := token.NewFileSet()
				if _, perr := parser.ParseFile(fset, "out.go", out, 0); perr != nil {
					t.Fatalf("emitted invalid Go (sema=%v): %v\n--- input ---\n%s\n--- output ---\n%s", opts.Sema, perr, src, out)
				}
			}
		}
	})
}

// rawRecord frames a payload by hand — fields that appendRecord would never
// write, under a CRC that passes.
func rawRecord(kind, flags byte, key cacheKey, lens [3]uint32, rest string) []byte {
	p := append([]byte{kind, flags}, key[:]...)
	for _, n := range lens {
		p = le.AppendUint32(p, n)
	}
	p = append(p, rest...)
	h := le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, recMagic), uint32(len(p))), crc32.ChecksumIEEE(p))
	return append(h, p...)
}

// FuzzCacheLog holds the cache-file boundary on arbitrary bytes: the loader
// never panics and allocates by the file's length alone, never by a length
// the file declares; every record it kept decodes or misses; and a run over
// the file equals a cold run, outputs and diagnostics. Seeds: a real log —
// whole, cut, with a flipped byte — a header declaring 2 GiB, and records
// that pass their CRC with a JSON null for a diagnostic, diagnostics that
// are not JSON, field lengths past the payload and a kind nobody writes
// (under a key no run looks up: a forged record under a real key is a wrong
// hit no cache can detect).
func FuzzCacheLog(f *testing.F) {
	root, _ := genCorpus(f, 6, 3)
	cacheDir := filepath.Join(f.TempDir(), "cache")
	logPath := filepath.Join(cacheDir, logName)
	opts := Options{Workers: 1, CacheDir: cacheDir, Sema: sema.Strict}
	cold, err := Run(root, opts)
	if err != nil {
		f.Fatal(err)
	}
	wantOut, wantDiags := digestResult(f, cold, "")
	intact := readFile(f, logPath)
	flipped := bytes.Clone(intact)
	flipped[len(flipped)/2] ^= 0x40
	forged := rawRecord(recFile, flagOutput, cacheKey{1}, [3]uint32{1, 1, 6}, "np[null]out")
	forged = append(forged, rawRecord(recSema, 0, cacheKey{2}, [3]uint32{1, 0, 4}, "n{bad")...)
	forged = append(forged, rawRecord(7, 0xff, cacheKey{3}, [3]uint32{0, 0, 0}, "")...)
	forged = append(forged, rawRecord(recFile, 0, cacheKey{4}, [3]uint32{1 << 31, 1 << 31, 1 << 31}, "x")...)
	for _, seed := range [][]byte{intact, intact[:len(intact)/3], flipped, forged, {},
		le.AppendUint32(le.AppendUint32(nil, recMagic), 1<<31), []byte(`{"format": "gompcc-cache-v1"}`)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := openCache(cacheDir)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4*uint64(len(data)) {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		if c.valid > len(data) {
			t.Fatalf("scanned %d of %d bytes", c.valid, len(data))
		}
		for key, r := range c.recs {
			c.lookup(r[0], key)
		}
		res, err := Run(root, opts)
		if err != nil {
			t.Fatal(err)
		}
		if out, diags := digestResult(t, res, ""); out != wantOut || diags != wantDiags {
			t.Fatalf("run over a %d-byte cache file (%d scanned, %d hits) differs from the cold run", len(data), c.valid, res.CacheHits)
		}
	})
}
