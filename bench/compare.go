package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareFiles prints the comparison of two result files, a the parent
// and b the change.
func compareFiles(w io.Writer, aPath, bPath string) error {
	var files [2]runFile
	for i, path := range []string{aPath, bPath} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if files[i].Schema != runFileSchema {
			return fmt.Errorf("%s: schema %q, want %q", path, files[i].Schema, runFileSchema)
		}
	}
	_, err := compareRuns(w, files[0].Runs, files[1].Runs)
	return err
}

// compareRuns prints one row per workload and metric present on both
// sides: both medians, the change of b relative to a (its base), the
// bound, and a verdict. End-to-end rows are judged against their bound:
//
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better than a's by more than the bound
//	unresolved  the medians are within the bound, but the runs of one
//	            side spread wider than the bound, so "same" is not shown
//	same        otherwise
//
// Per-layer rows have no bound and no verdict. It returns how many rows
// moved by more than their bound, either way.
func compareRuns(w io.Writer, a, b []runRecord) (moved int, err error) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tdelta\tbound\tverdict")
	rows := 0
	for _, wl := range workloads {
		for _, list := range [][]metricSpec{endToEnd, perLayer} {
			for _, spec := range list {
				va, vb := valuesOf(a, wl.name, spec.Name), valuesOf(b, wl.name, spec.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				rows++
				ma, mb := median(va), median(vb)
				delta := "n/a" // a zero base has no relative change
				rel := 0.0
				if ma != 0 {
					rel = (mb - ma) / ma
					delta = fmt.Sprintf("%+.2f%% of %.6g", 100*rel, ma)
				}
				bound, verdict := "", ""
				if spec.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*spec.Bound)
					verdict = judge(spec, rel, va, vb)
					if verdict == "worse" || verdict == "better" {
						moved++
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", wl.name, spec.Name, ma, mb, delta, bound, verdict)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	if rows == 0 {
		return 0, fmt.Errorf("the two sides share no workload and metric")
	}
	return moved, nil
}

func valuesOf(runs []runRecord, workload, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// judge gives the verdict for one end-to-end row; rel is (b-a)/a.
func judge(spec metricSpec, rel float64, va, vb []float64) string {
	if spec.Better == higher {
		rel = -rel // now positive means worse
	}
	switch {
	case rel > spec.Bound:
		return "worse"
	case rel < -spec.Bound:
		return "better"
	case spread(va) > spec.Bound || spread(vb) > spec.Bound:
		return "unresolved"
	}
	return "same"
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 for fewer than four runs, where quartiles mean
// nothing.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 4 || m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / m
}
