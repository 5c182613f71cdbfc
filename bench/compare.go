package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// side is one file of results: per workload and metric the values of every
// untraced run, and the operations attempted and failed.
type side struct {
	values            map[string]map[string][]float64
	attempted, failed map[string]int
}

func readSide(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue // end-to-end numbers come from untraced runs only
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
		}
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
	}
	return s, sc.Err()
}

// compareMain prints one row per workload and end-to-end metric: both
// medians with their quartiles, B's median as a ratio of A's, the bound,
// and a verdict. It returns non-zero when B regresses a metric beyond its
// bound or fails a larger share of its operations.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.jsonl B.jsonl   (files written by -out; A is the base)")
		return 2
	}
	a, err := readSide(args[0])
	if err == nil {
		var b *side
		if b, err = readSide(args[1]); err == nil {
			return compareSides(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

func compareSides(a, b *side, w io.Writer) int {
	status := 0
	fmt.Fprintf(w, "%-14s %-9s %-4s %12s %25s %12s %25s %12s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A quartiles", "B median", "B quartiles", "B/A", "bound", "verdict")
	for _, wl := range workloads {
		if len(a.values[wl.Name]) == 0 {
			continue // A did not run this workload: there is nothing to hold B to
		}
		for _, d := range endToEnd {
			av, bv := a.values[wl.Name][d.Name], b.values[wl.Name][d.Name]
			am, bm := median(av), median(bv)
			if !(am > 0) || !(bm > 0) {
				// A number that is gone, or reads zero, is not one that held.
				fmt.Fprintf(w, "%-14s %-9s MISSING: %d values in A (median %g), %d in B (median %g)\n", wl.Name, d.Name, len(av), am, len(bv), bm)
				status = 1
				continue
			}
			aq1, aq3 := quartiles(av)
			bq1, bq3 := quartiles(bv)
			worse := bm/am - 1 // share of A's median by which B is worse
			if d.Better == "higher" {
				worse = 1 - bm/am
			}
			spread := max((aq3-aq1)/am, (bq3-bq1)/bm)
			verdict := "within bound"
			switch {
			case spread > d.Bound:
				// The runs of one side disagree by more than the bound, so
				// neither "unchanged" nor "regressed" can be read off.
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-9s %-4s %12.6g %25s %12.6g %25s %6.3f of A %6.2f  %s (n=%d,%d)\n",
				wl.Name, d.Name, d.Unit, am, fmt.Sprintf("[%.6g, %.6g]", aq1, aq3),
				bm, fmt.Sprintf("[%.6g, %.6g]", bq1, bq3), bm/am, d.Bound, verdict, len(av), len(bv))
		}
		as := float64(a.failed[wl.Name]) / float64(max(1, a.attempted[wl.Name]))
		bs := float64(b.failed[wl.Name]) / float64(max(1, b.attempted[wl.Name]))
		if bs > as {
			fmt.Fprintf(w, "%-14s failed operations: %.4g of A's, %.4g of B's: B FAILS MORE\n", wl.Name, as, bs)
			status = 1
		}
	}
	return status
}
