package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readReports reads a file of untraced run reports, one JSON object per
// line, and groups the metric values by workload and metric name.
func readReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rep.Trace {
			continue
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for _, set := range []map[string]metricValue{rep.Metrics, rep.Demoted} {
			for name, m := range set {
				out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
			}
		}
	}
	return out, sc.Err()
}

// verdict judges new against base for one metric. The spread of a set is
// the distance between its quartiles as a share of its median, as the
// driver takes it. Where either set spreads wider than the bound the two
// cannot be told apart at that bound: unresolved, not same. An absolute
// bound compares differences instead of shares.
func verdict(def metricDef, absolute bool, base, new []float64) (baseMed, newMed, spread float64, word string) {
	bq1, baseMed, bq3 := quartiles(base)
	nq1, newMed, nq3 := quartiles(new)
	// change is how much worse new is; negative is better.
	change := newMed - baseMed
	if absolute {
		spread = max(bq3-bq1, nq3-nq1)
	} else {
		spread = max(ratio(bq3-bq1, baseMed), ratio(nq3-nq1, newMed))
		change = ratio(change, baseMed)
	}
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case spread > def.Bound:
		word = "unresolved"
	case change > def.Bound:
		word = "worse"
	case change < -def.Bound:
		word = "better"
	default:
		word = "same"
	}
	return baseMed, newMed, spread, word
}

// compareFiles prints one row per workload and end-to-end metric, the
// demoted ones (metrics.go) included.
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	cur, err := readReports(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tspread\tbound\truns\tverdict\t")
	row := func(workload string, def metricDef, absolute bool) {
		b, n := base[workload][def.Name], cur[workload][def.Name]
		if len(b) == 0 || len(n) == 0 {
			return
		}
		bm, nm, spread, word := verdict(def, absolute, b, n)
		spreadCol, boundCol := fmt.Sprintf("%.1f%%", 100*spread), fmt.Sprintf("%.0f%%", 100*def.Bound)
		if absolute {
			spreadCol, boundCol = fmt.Sprintf("%.4g", spread), fmt.Sprintf("+%.4g", def.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f of %.4g\t%s\t%s\t%d+%d\t%s\t\n",
			workload, def.Name, def.Unit, bm, nm, ratio(nm, bm), bm, spreadCol, boundCol, len(b), len(n), word)
	}
	for _, spec := range workloads {
		for _, def := range endToEnd {
			row(spec.Name, def, false)
		}
		for _, d := range demoted {
			row(spec.Name, d.metricDef, d.Absolute)
		}
	}
	return tw.Flush()
}
