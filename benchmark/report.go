package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// print writes the human-readable report: every metric by name with its
// unit, and for host metrics K, the median, the quartiles and the extremes.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  servers %d  op: one %s\n", r.Workload, r.Seed, r.Servers, r.Op)
	fmt.Fprintf(w, "env: %s  nproc %d  GOMAXPROCS %d  git %s\n", r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GitRev)
	fmt.Fprintf(w, "iterations: %d warm-up + %d measured (untraced)  attempted %d  failed %d\n\n", r.WarmUps, r.Iterations, r.Attempted, r.Failed)

	if r.Traced {
		fmt.Fprintln(w, "end-to-end (the untraced part of a traced run: fewer iterations)")
	} else {
		fmt.Fprintln(w, "end-to-end")
	}
	printStats(w, endToEnd, r.EndToEnd)
	if len(r.Info) > 0 {
		fmt.Fprintln(w, "\ninformation (not gated)")
		keys := make([]string, 0, len(r.Info))
		for k := range r.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-32s %v\n", k, r.Info[k])
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintln(w, "\nper-layer (traced run)")
		printStats(w, perLayer, r.PerLayer)
		if len(r.EstimatedShare) > 0 {
			fmt.Fprintln(w, "\nestimated share of run_s (count x unit cost; layers nest, so shares overlap)")
			layers := make([]string, 0, len(r.EstimatedShare))
			for k := range r.EstimatedShare {
				layers = append(layers, k)
			}
			sort.Strings(layers)
			for _, k := range layers {
				fmt.Fprintf(w, "  %-32s %.3f\n", k, r.EstimatedShare[k])
			}
		}
	}
	fmt.Fprintln(w)
}

func printStats(w io.Writer, defs []metricDef, vals map[string]stat) {
	fmt.Fprintf(w, "  %-32s %-8s %13s %3s %13s %13s %13s %13s %13s\n", "metric", "unit", "value", "K", "min", "q1", "median", "q3", "max")
	for _, m := range defs {
		st, ok := vals[m.Name]
		if !ok {
			continue
		}
		if st.K > 0 {
			fmt.Fprintf(w, "  %-32s %-8s %13.6g %3d %13.6g %13.6g %13.6g %13.6g %13.6g\n", m.Name, st.Unit, st.Value, st.K, st.Min, st.Q1, st.Median, st.Q3, st.Max)
		} else {
			fmt.Fprintf(w, "  %-32s %-8s %13.6g\n", m.Name, st.Unit, st.Value)
		}
	}
}

// writeJSON writes the full result for -compare.
func (r *result) writeJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractMetric is one entry of the driver's result line.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output: what the driver named in
// BENCHMARK.json reads. An untraced run carries the contract's end-to-end
// metrics, a traced run every per-layer metric — a per-layer metric the
// workload does not define reads 0 there, because the driver wants every
// name on every workload.
func (r *result) contractLine() ([]byte, error) {
	metrics := make(map[string]contractMetric)
	if r.Traced {
		for _, m := range perLayer {
			metrics[m.Name] = contractMetric{Value: r.PerLayer[m.Name].Value, Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.SeedBound > 0 {
				metrics[m.Name] = contractMetric{Value: r.EndToEnd[m.Name].Value, Unit: m.Unit}
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{true, r.Attempted, r.Failed, metrics})
}
