package modpipe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/directive"
	"repro/internal/transform"
)

// The incremental rebuild cache. Keying is pure content addressing: every
// source is read and SHA-256'd once per run and both key families derive
// from that digest (contentKey, semaUnitKey). Nothing about mtimes or sizes
// — a touched-but-identical file is still a hit, a reverted file becomes a
// hit again (the log only grows, so old records survive), and bumping
// transform.Version or sema.Version moves every key at once. Sema results
// are cached per package unit, at error severity (the strict view; warn
// mode demotes copies at aggregation), so records are mode-independent.
//
// The cache directory holds one file, cache.log: a sequence of records,
// integers little-endian.
//
//	header   magic u32 (the format tag) | payload length u32 | CRC-32 (IEEE)
//	         of the payload u32
//	payload  kind u8 (1 file, 2 sema unit) | flags u8 | key [32] |
//	         lengths u32 of name, package and diagnostics |
//	         name (relative path or unit label, informational) |
//	         package-clause name | diagnostics (JSON; empty when none) |
//	         output bytes (the rest)
//
// A run loads the log with one read and one linear scan; records alias the
// loaded buffer (so does FileResult.Output) and are decoded only when hit,
// so nothing is allocated by a length the file declares. The scan ends at
// the first record that is short, has another magic or fails its CRC: what
// precedes it is the cache (an unknown format is a cold cache) and the file
// is truncated there before the next append. A run appends only its new
// records — none when fully warm — after the join, sema units in label
// order and then files in DiscoverFiles order, with one O_APPEND write: any
// worker count writes the same bytes, and two runs sharing a directory
// cannot interleave — at worst one truncates the other's tail, which costs
// re-transforms, never a wrong hit. Deleting the directory means a cold run.

// cacheFormat is mixed into every key; recMagic tags every record on disk.
// Bump both when the record layout or the key derivation changes.
const (
	cacheFormat = "gompcc-cache-v2"
	recMagic    = 0x32636d67 // "gmc2"
	logName     = "cache.log"
	recHeader   = 12 // magic, payload length, CRC
	recFixed    = 46 // kind, flags, key, three lengths

	recFile, recSema         = 1, 2
	flagOutput, flagPanicked = 1, 2
)

var le = binary.LittleEndian

// cacheKey is a content key: a raw SHA-256.
type cacheKey = [sha256.Size]byte

// entry is a record decoded, or an outcome to encode as one.
type entry struct {
	pkg      string // package-clause name; "" when the clause does not parse
	panicked bool
	diags    directive.DiagnosticList
	out      []byte // nil when diagnostics blocked the output
}

// cache is the loaded log. A nil *cache disables caching.
type cache struct {
	path        string
	recs        map[cacheKey][]byte // validated payloads, aliasing the loaded log
	size, valid int                 // bytes loaded, and the prefix of them that scanned
}

// openCache loads the log under dir; no dir, no cache. Every failure mode —
// missing directory or file, another format, damage anywhere — leaves the
// records before it, down to none: a cold cache.
func openCache(dir string) *cache {
	if dir == "" {
		return nil
	}
	c := &cache{path: filepath.Join(dir, logName), recs: map[cacheKey][]byte{}}
	buf, _ := os.ReadFile(c.path)
	c.size = len(buf)
	for len(buf)-c.valid >= recHeader {
		h := buf[c.valid:]
		n := uint64(le.Uint32(h[4:]))
		if le.Uint32(h) != recMagic || n < recFixed || n > uint64(len(h)-recHeader) {
			break
		}
		end := recHeader + int(n)
		r := h[recHeader:end:end]
		fields := uint64(le.Uint32(r[34:])) + uint64(le.Uint32(r[38:])) + uint64(le.Uint32(r[42:]))
		if crc32.ChecksumIEEE(r) != le.Uint32(h[8:]) || recFixed+fields > n {
			break
		}
		c.recs[cacheKey(r[2:34])] = r
		c.valid += end
	}
	return c
}

// lookup decodes the record of that kind under key; nil is a miss, as is a
// nil cache or a record whose diagnostics do not decode.
func (c *cache) lookup(kind byte, key cacheKey) *entry {
	if c == nil {
		return nil
	}
	r, ok := c.recs[key]
	if !ok || r[0] != kind {
		return nil
	}
	name, pkg, diags := int(le.Uint32(r[34:])), int(le.Uint32(r[38:])), int(le.Uint32(r[42:]))
	b := r[recFixed+name:]
	e := &entry{pkg: string(b[:pkg]), panicked: r[1]&flagPanicked != 0}
	var ds []directive.Diagnostic // by value: a JSON null is no nil pointer
	if diags > 0 && json.Unmarshal(b[pkg:pkg+diags], &ds) != nil {
		return nil
	}
	for i := range ds {
		e.diags = append(e.diags, &ds[i])
	}
	if r[1]&flagOutput != 0 {
		e.out = b[pkg+diags:]
	}
	return e
}

// appendRecord encodes one record onto log.
func appendRecord(log []byte, kind byte, key cacheKey, name string, e *entry) []byte {
	var flags byte
	if e.out != nil {
		flags |= flagOutput
	}
	if e.panicked {
		flags |= flagPanicked
	}
	var diags []byte
	if len(e.diags) > 0 {
		diags, _ = json.Marshal(e.diags) // structs of strings and ints: cannot fail
	}
	start := len(log)
	log = append(log, make([]byte, recHeader)...)
	log = append(log, kind, flags)
	log = append(log, key[:]...)
	for _, n := range [...]int{len(name), len(e.pkg), len(diags)} {
		log = le.AppendUint32(log, uint32(n))
	}
	log = append(append(append(append(log, name...), e.pkg...), diags...), e.out...)
	payload := log[start+recHeader:]
	le.PutUint32(log[start:], recMagic)
	le.PutUint32(log[start+4:], uint32(len(payload)))
	le.PutUint32(log[start+8:], crc32.ChecksumIEEE(payload))
	return log
}

// append writes the run's new records with one O_APPEND write, first
// cutting off whatever the load could not scan.
func (c *cache) append(log []byte) error {
	if err := os.MkdirAll(filepath.Dir(c.path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(c.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if c.valid < c.size {
		err = f.Truncate(int64(c.valid))
	}
	if err == nil {
		_, err = f.Write(log)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// contentKey computes a file's transform cache key from its source digest
// and the part of transform.Options that shapes output. semaVersion is in
// the key even though transform records are sema-mode-independent: bumping
// the semantic analyzer must invalidate warm records wholesale, and
// folding the version in here is what moves every key at once. rel is in
// it because cached diagnostics replay verbatim and carry the path.
func contentKey(version, semaVersion string, topts transform.Options, rel string, sum cacheKey) cacheKey {
	pre := strings.Join([]string{cacheFormat, version, semaVersion, topts.Package, topts.ImportPath, rel, ""}, "\x00")
	return sha256.Sum256(append([]byte(pre), sum[:]...))
}

// semaUnitKey computes a package unit's sema cache key from the sema
// version, the unit label and the (path, source digest) pair of every
// member file, in DiscoverFiles order — any member edit moves the key.
func semaUnitKey(semaVersion, label string, members []*unit) cacheKey {
	pre := []byte(strings.Join([]string{cacheFormat, "sema", semaVersion, label, ""}, "\x00"))
	for _, m := range members {
		pre = append(append(pre, m.rel...), 0)
		pre = append(pre, m.sum[:]...)
	}
	return sha256.Sum256(pre)
}
