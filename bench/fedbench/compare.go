package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// gate is one end-to-end metric's regression rule from BENCHMARK.json.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadGates(path string) ([]gate, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

func loadRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict outcomes of a comparison row.
const (
	verdictOK         = "ok"         // B within the bound of A
	verdictRegressed  = "REGRESSED"  // B worse than A by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
	verdictBetter     = "better"     // spread too wide, but every B run beats every A run
)

// row is one (workload, metric) comparison of run set B against run set A.
type row struct {
	workload, metric string
	nA, nB           int
	medA, medB       float64
	worse            float64 // B's median relative to A's, positive = worse
	spreadA, spreadB float64 // IQR / median of each set
	bound            float64
	verdict          string
}

// compareSets compares B against A for every workload present in both and
// every gated metric. Only valid, correct runs count. The worsening is the
// median delta as a share of A's median, signed so that positive is worse;
// it regresses when it exceeds the bound. When either set's spread exceeds
// the bound the medians cannot resolve a change of that size, and the row is
// unresolved unless every B run is better than every A run.
func compareSets(a, b []runRecord, gates []gate) []row {
	values := func(runs []runRecord, w, m string) []float64 {
		var out []float64
		for _, r := range runs {
			if r.Workload != w || !r.Valid || !r.Correct {
				continue
			}
			if v, ok := r.Metrics[m]; ok {
				out = append(out, v)
			}
		}
		return out
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range a {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	var rows []row
	for _, w := range names {
		for _, g := range gates {
			va, vb := values(a, w, g.Name), values(b, w, g.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{workload: w, metric: g.Name, nA: len(va), nB: len(vb), bound: g.Bound,
				medA: median(va), medB: median(vb), spreadA: spread(va), spreadB: spread(vb)}
			sign := 1.0
			if g.Better == "higher" {
				sign = -1
			}
			if r.medA != 0 {
				r.worse = (r.medB - r.medA) / r.medA
				if sign < 0 {
					r.worse = (r.medA - r.medB) / r.medA
				}
			}
			switch {
			case r.spreadA > g.Bound || r.spreadB > g.Bound:
				r.verdict = verdictUnresolved
				if allBetter(va, vb, sign) {
					r.verdict = verdictBetter
				}
			case r.worse > g.Bound:
				r.verdict = verdictRegressed
			default:
				r.verdict = verdictOK
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// allBetter reports whether every value of b beats every value of a; sign is
// +1 when lower is better and −1 when higher is.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*y >= sign*x {
				return false
			}
		}
	}
	return true
}

// runCompare prints the comparison of two run files and fails when any row
// regressed.
func runCompare(spec, pathA, pathB string, stdout, stderr io.Writer) int {
	gates, err := loadGates(spec)
	if err == nil {
		var a, b []runRecord
		if a, err = loadRuns(pathA); err == nil {
			if b, err = loadRuns(pathB); err == nil {
				return printRows(stdout, compareSets(a, b, gates))
			}
		}
	}
	fmt.Fprintln(stderr, "fedbench:", err)
	return 1
}

func printRows(w io.Writer, rows []row) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn A/B\tmedian A\tmedian B\tworse\tbound\tspread A\tspread B\tverdict")
	status := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g\t%.4g\t%+.2f%%\t%.1f%%\t%.2f%%\t%.2f%%\t%s\n",
			r.workload, r.metric, r.nA, r.nB, r.medA, r.medB, 100*r.worse, 100*r.bound, 100*r.spreadA, 100*r.spreadB, r.verdict)
		if r.verdict == verdictRegressed {
			status = 1
		}
	}
	tw.Flush()
	return status
}
