package modpipe

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/sema"
	"repro/internal/transform"
)

// The cache keys every record by transform.Version, so a change that moves
// one emitted byte or one diagnostic without bumping the version makes warm
// runs replay stale records. pinnedDigest is the digest of every output and
// diagnostic of a 240-file seed-1 corpus under all three sema modes, taken
// at pinnedVersion.
const (
	pinnedVersion = "13.0"
	pinnedDigest  = "1ee977f77716a72a90be9a84a9534888f65ee33818e4b40db9b7022dd659d1a1"
)

// TestOutputDigestPinnedToVersion fails when the corpus digest moves while
// transform.Version still equals pinnedVersion. A version bump must re-pin
// both constants (the failure prints the new digest).
func TestOutputDigestPinnedToVersion(t *testing.T) {
	root, _ := genCorpus(t, 240, 1)
	h := sha256.New()
	for _, mode := range []sema.Mode{sema.Off, sema.Strict, sema.Warn} {
		res, err := Run(root, Options{Workers: 2, Sema: mode})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "mode %v\n", mode)
		for _, f := range res.Files {
			fmt.Fprintf(h, "file %s changed=%v blocked=%v len=%d\n", f.Rel, f.Changed, f.SemaBlocked, len(f.Output))
			h.Write(f.Output)
		}
		for _, d := range res.Diags {
			fmt.Fprintf(h, "diag %s:%d:%d+%d %v %v %q\n", d.File, d.Line, d.Col, d.Span, d.Kind, d.Severity, d.Msg)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	switch {
	case transform.Version != pinnedVersion:
		t.Fatalf("transform.Version is %q but the digest is pinned at %q: set pinnedVersion = %q, pinnedDigest = %q",
			transform.Version, pinnedVersion, transform.Version, got)
	case got != pinnedDigest:
		t.Fatalf("emitted bytes or diagnostics changed (digest %s, pinned %s) while transform.Version stayed %q: bump transform.Version and re-pin",
			got, pinnedDigest, pinnedVersion)
	}
}
