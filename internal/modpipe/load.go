package modpipe

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DiscoverFiles walks the module rooted at root and returns the
// slash-separated relative paths of every Go source file in it, sorted, so
// unit planning is deterministic regardless of filesystem iteration order.
//
// This is the go/packages-shaped loading seam, gated on the stdlib: the
// container this grows in has no module cache and no network, so
// golang.org/x/tools/go/packages cannot be vendored in. The walk applies
// the same pruning go/packages' file loader would — vendor trees, testdata,
// dot- and underscore-prefixed entries are skipped, and a nested go.mod
// ends the module like a nested-module boundary does — and the rest of the
// pipeline only needs per-file units, so swapping a real packages.Load in
// later only replaces this function.
func DiscoverFiles(root string) ([]string, error) { return discover(root) }

// discover is DiscoverFiles less skip: a run's own mirror and cache.
func discover(root string, skip ...string) ([]string, error) {
	info, err := os.Stat(root)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("modpipe: %s is not a directory", root)
	}
	pruned := map[string]bool{} // skip, as the walk below spells its paths
	absRoot, _ := filepath.Abs(root)
	for _, dir := range skip {
		abs, _ := filepath.Abs(dir)
		if rel, rerr := filepath.Rel(absRoot, abs); rerr == nil && dir != "" && filepath.IsLocal(rel) {
			pruned[filepath.Join(root, rel)] = true
		}
	}
	var files []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "vendor" || name == "testdata" || pruned[path] ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			// A nested go.mod starts a different module; stay out of it.
			if _, serr := os.Stat(filepath.Join(path, "go.mod")); serr == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		files = append(files, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	return files, nil
}
