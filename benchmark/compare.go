package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// verdict is what -compare says about one (metric, workload) pair.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// loadResults reads one side of a comparison: a result file, or a directory
// of result files (several runs of several workloads).
func loadResults(path string) ([]*result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || r.EndToEnd == nil {
			return nil, fmt.Errorf("%s: not a benchmark result", f)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// side is one (metric, workload) cell of one side: the value of every run,
// and the spread to hold against the bound.
type side struct {
	values []float64
	median float64
	// spread is the inter-quartile distance as a share of the median:
	// across the runs when there are several, across the one run's
	// iterations otherwise. known is false when neither exists (one run of
	// a metric read once per process, such as peak_rss_mb).
	spread float64
	known  bool
}

func sideOf(runs []*result, metric string) (side, bool) {
	var s side
	var only stat
	for _, r := range runs {
		if st, ok := r.EndToEnd[metric]; ok {
			s.values = append(s.values, st.Value)
			only = st
		}
	}
	if len(s.values) == 0 {
		return s, false
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	s.median = quantile(sorted, 0.5)
	switch {
	case s.median == 0:
	case len(sorted) > 1:
		s.spread, s.known = (quantile(sorted, 0.75)-quantile(sorted, 0.25))/s.median, true
	case only.K > 0 && only.Median != 0:
		s.spread, s.known = (only.Q3-only.Q1)/only.Median, true
	}
	return s, true
}

// judge applies the bound to one pair. delta is the relative change in the
// worse direction (positive = b is worse than a).
func judge(m metricDef, a, b side) (verdict, float64) {
	delta := b.median - a.median
	if m.Better == "higher" {
		delta = -delta
	}
	if a.median != 0 {
		delta /= a.median
	}
	allBetter := true
	for _, bv := range b.values {
		for _, av := range a.values {
			if (m.Better == "lower" && bv >= av) || (m.Better == "higher" && bv <= av) {
				allBetter = false
			}
		}
	}
	spread := a.spread
	if b.spread > spread {
		spread = b.spread
	}
	// An improvement counts once it exceeds the spread; where no spread is
	// known, once it exceeds the bound. A host metric that moved by less than
	// the report prints (0.005 %) has not moved.
	gain := spread
	if m.Bound > 0 {
		if !a.known || !b.known {
			gain = m.Bound
		}
		if gain < 0.00005 {
			gain = 0.00005
		}
	}
	switch {
	case delta > m.Bound:
		return worse, delta
	case m.Bound > 0 && spread > m.Bound:
		// Too noisy to call, unless every run of b beats every run of a.
		if allBetter && len(a.values) > 1 && len(b.values) > 1 {
			return better, delta
		}
		return unresolved, delta
	case -delta > gain:
		return better, delta
	default:
		return unchanged, delta
	}
}

// compare prints one row per (metric, workload) pair present on both sides
// and reports how many pairs are worse and how many unresolved.
func compare(w io.Writer, aPath, bPath string) (nWorse, nUnresolved int, err error) {
	aRuns, err := loadResults(aPath)
	if err != nil {
		return 0, 0, err
	}
	bRuns, err := loadResults(bPath)
	if err != nil {
		return 0, 0, err
	}
	byWorkload := func(runs []*result) map[string][]*result {
		m := make(map[string][]*result)
		for _, r := range runs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	aBy, bBy := byWorkload(aRuns), byWorkload(bRuns)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	pairs := 0
	for _, sc := range scenarios {
		a, b := aBy[sc.name], bBy[sc.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range endToEnd {
			as, okA := sideOf(a, m.Name)
			bs, okB := sideOf(b, m.Name)
			if !okA || !okB {
				continue
			}
			pairs++
			v, delta := judge(m, as, bs)
			switch v {
			case worse:
				nWorse++
			case unresolved:
				nUnresolved++
			}
			spread := as.spread
			if bs.spread > spread {
				spread = bs.spread
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				sc.name, m.Name, as.median, bs.median, 100*delta, 100*spread, 100*m.Bound, v)
		}
	}
	if pairs == 0 {
		return 0, 0, fmt.Errorf("%s and %s share no (metric, workload) pair", aPath, bPath)
	}
	fmt.Fprintf(w, "%d pairs: %d worse, %d unresolved (change is relative to a, positive = worse)\n", pairs, nWorse, nUnresolved)
	return nWorse, nUnresolved, nil
}
