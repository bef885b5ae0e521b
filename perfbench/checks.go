package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pathsel/internal/dataset"
	"pathsel/internal/experiments"
)

// figure1Datasets are Figure 1's datasets, in the order it plots them.
func figure1Datasets(s *experiments.Suite) []*dataset.Dataset {
	return []*dataset.Dataset{s.UW1, s.UW3, s.D2NA, s.D2}
}

// paperBand is the range of better-alternate fractions the paper
// reports for Figure 1 (30-80% of paths have a better alternate). It
// is checked on UW1, UW3 and D2. reproduce-full always runs the
// paper's suite seed, where D2 reads 37%; at suite seeds 2-11 the
// synthetic D2 reads 8-30%, so the check on D2 holds for that seed
// only.
var paperBand = [2]float64{0.30, 0.80}

// checkReport checks a reproduce-full results directory against the
// oracle run over the suite decoded from the run's own snapshot. It
// returns one message per failed check.
func checkReport(s *experiments.Suite, dir string) []string {
	var fails []string
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }

	for _, ds := range figure1Datasets(s) {
		imp := improvements(bestAlternates(ds))
		name := fmt.Sprintf("figure1-%s.dat", slug(ds.Name))
		rows, err := readColumns(filepath.Join(dir, name))
		if err != nil {
			fail("%v", err)
			continue
		}
		want := cdfRows(imp, 500)
		if len(rows) != len(want) {
			fail("%s has %d rows, the oracle's CDF has %d", name, len(rows), len(want))
			continue
		}
		for i, r := range rows {
			x, err := strconv.ParseFloat(r[0], 64)
			if err != nil || !closeEnough(x, want[i].X) || r[1] != want[i].Frac {
				fail("%s row %d is %v, the oracle says %g %s", name, i+1, r, want[i].X, want[i].Frac)
				break
			}
		}
		if ds == s.D2NA {
			continue
		}
		if f := fracAbove(imp); f < paperBand[0] || f > paperBand[1] {
			fail("%s better-alternate fraction %.3f is outside the paper's %.0f-%.0f%% band",
				ds.Name, f, 100*paperBand[0], 100*paperBand[1])
		}
	}

	cdfs, err := cdfFiles(dir)
	if err != nil {
		fail("%v", err)
	}
	for _, name := range cdfs {
		rows, err := readColumns(filepath.Join(dir, name))
		if err != nil {
			fail("%v", err)
			continue
		}
		if msg := checkCDFColumn(rows); msg != "" {
			fail("%s: %s", name, msg)
		}
	}

	rows, err := readColumns(filepath.Join(dir, "overlay-summary.dat"))
	if err != nil {
		fail("%v", err)
	}
	for _, r := range rows {
		// Columns: budget, availability default/overlay/optimal, mean
		// RTT default/overlay/optimal, ...
		v := parseRow(r)
		if len(v) < 7 {
			fail("overlay-summary.dat row %v is short", r)
			continue
		}
		if v[3] < v[1] || v[3] < v[2] || v[6] > v[4] || v[6] > v[5] {
			fail("overlay-summary.dat budget %g: the offline optimum does not bound default and overlay: %v", v[0], r)
		}
	}
	if len(rows) == 0 {
		fail("overlay-summary.dat has no budgets")
	}

	rows, err = readColumns(filepath.Join(dir, "multipath-kcurve.dat"))
	if err != nil {
		fail("%v", err)
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := parseRow(rows[i-1]), parseRow(rows[i])
		for c := 1; c < len(cur) && c < len(prev); c++ {
			if cur[c] < prev[c] {
				fail("multipath-kcurve.dat column %d decreases from k=%g to k=%g", c+1, prev[0], cur[0])
			}
		}
	}
	if len(rows) < 2 {
		fail("multipath-kcurve.dat has %d rows", len(rows))
	}
	return fails
}

// cdfFiles lists the data files that hold a CDF in their second
// column: every figure file except the scatter data of Figures 14 and
// 16, and the overlay reaction/RTT and multipath disjointness CDFs.
func cdfFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		n := e.Name()
		switch {
		case n == "figure14.dat", n == "figure16.dat":
		case strings.HasPrefix(n, "figure"), strings.HasPrefix(n, "overlay-reaction-"),
			strings.HasPrefix(n, "overlay-pair-rtt-"), n == "multipath-disjointness.dat":
			out = append(out, n)
		}
	}
	sort.Strings(out)
	if len(out) < 40 {
		return out, fmt.Errorf("only %d CDF data files in %s", len(out), dir)
	}
	return out, nil
}

// checkCDFColumn checks that a CDF's fractions never decrease and end
// at 1.
func checkCDFColumn(rows [][]string) string {
	prev := 0.0
	for i, r := range rows {
		if len(r) < 2 {
			return fmt.Sprintf("row %d has no fraction", i+1)
		}
		f, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			return fmt.Sprintf("row %d: %v", i+1, err)
		}
		if f < prev {
			return fmt.Sprintf("fraction falls from %g to %g at row %d", prev, f, i+1)
		}
		prev = f
	}
	if len(rows) > 0 && prev != 1 {
		return fmt.Sprintf("ends at %g, not 1", prev)
	}
	return ""
}

// readColumns reads a tab-separated data file, skipping comments.
func readColumns(path string) ([][]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rows = append(rows, strings.Split(line, "\t"))
	}
	return rows, nil
}

// parseRow parses every column of a row as a number; an unparsable
// column reads as zero.
func parseRow(r []string) []float64 {
	out := make([]float64, len(r))
	for i, s := range r {
		out[i], _ = strconv.ParseFloat(s, 64)
	}
	return out
}

// slug lower-cases a series name and turns every other character into
// '-', the way cmd/figures names its data files.
func slug(s string) string {
	s = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + 'a' - 'A'
		default:
			return '-'
		}
	}, s)
	return strings.Trim(s, "-")
}
