// Command compare judges two sets of benchmark result files (what
// `bench -out` writes) against the bounds in BENCHMARK.json, one row
// per workload and end-to-end metric: each side's median and quartiles,
// and a verdict.
//
//	regressed   the new median is worse than the old by more than the bound
//	unresolved  either side's run-to-run spread (IQR) exceeds the bound, so
//	            neither "regressed" nor "unchanged" can be told
//	improved    there are at least ten pairs, the new side wins at least 9/10
//	            of them (ties count for neither) and the medians differ by
//	            more than the old IQR
//	unchanged   everything else
//
// Runs are paired in file order, so produce them alternating. Runs the
// host-noise sentinel marks are dropped: those whose spin changed by
// more than a tenth between start and end ("noisy"), and those whose
// spin was more than a tenth slower than the median spin of all the
// runs given, which is how a run wholly inside a busy spell of the
// host shows. -self splits one set of runs of one commit in two
// (alternating), to check that the benchmark agrees with itself. The
// exit status is 1 when any row is regressed or unresolved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type run struct {
	Workload string     `json:"workload"`
	Mode     string     `json:"mode"`
	Noisy    bool       `json:"noisy"`
	HostSpin [2]float64 `json:"host_spin_ms"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition holding the bounds")
	oldSet := fs.String("old", "", "parent's results: a directory or a glob of result files")
	newSet := fs.String("new", "", "the change's results: a directory or a glob")
	self := fs.String("self", "", "one set of runs of one commit, split in two")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bm benchmark
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bm)
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", *benchPath, err)
		return 2
	}
	var olds, news map[string][]run
	switch {
	case *self != "" && *oldSet == "" && *newSet == "":
		var all map[string][]run
		if all, err = load(*self); err == nil {
			olds, news = map[string][]run{}, map[string][]run{}
			for w, runs := range all {
				for i, r := range runs {
					if i%2 == 0 {
						olds[w] = append(olds[w], r)
					} else {
						news[w] = append(news[w], r)
					}
				}
			}
		}
	case *self == "" && *oldSet != "" && *newSet != "":
		if olds, err = load(*oldSet); err == nil {
			news, err = load(*newSet)
		}
	default:
		fmt.Fprintln(stderr, "compare: give -old and -new, or -self")
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}

	dropped := dropNoisy(olds, news)

	bad := 0
	fmt.Fprintf(stdout, "%-20s %-15s %-9s %36s %36s %8s %6s  %s\n", "workload", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "worse", "wins", "verdict")
	for _, w := range bm.Workloads {
		o, n := olds[w.Name], news[w.Name]
		if len(o) < 2 || len(n) < 2 {
			fmt.Fprintf(stdout, "%-20s needs at least 2 runs a side, has %d and %d\n", w.Name, len(o), len(n))
			bad++
			continue
		}
		for _, m := range bm.EndToEnd {
			ov, nv := values(o, m.Name), values(n, m.Name)
			row := judge(ov, nv, m.Better == "lower", m.Bound)
			if row.verdict == "regressed" || row.verdict == "unresolved" {
				bad++
			}
			fmt.Fprintf(stdout, "%-20s %-15s %-9s %12.4f [%10.4f, %10.4f] %12.4f [%10.4f, %10.4f] %+7.2f%% %3d/%-2d  %s\n",
				w.Name, m.Name, m.Unit, row.oldQ[1], row.oldQ[0], row.oldQ[2], row.newQ[1], row.newQ[0], row.newQ[2],
				100*row.worse, row.wins, row.pairs, row.verdict)
		}
	}
	if dropped > 0 {
		fmt.Fprintf(stdout, "%d noisy runs dropped\n", dropped)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// dropNoisy removes the runs the host-noise sentinel marks from both
// sides and returns how many it removed.
func dropNoisy(sides ...map[string][]run) (dropped int) {
	var spins []float64
	for _, side := range sides {
		for _, runs := range side {
			for _, r := range runs {
				spins = append(spins, (r.HostSpin[0]+r.HostSpin[1])/2)
			}
		}
	}
	if len(spins) == 0 {
		return 0
	}
	sort.Float64s(spins)
	limit := 1.1 * spins[len(spins)/2]
	for _, side := range sides {
		for w, runs := range side {
			kept := runs[:0]
			for _, r := range runs {
				if r.Noisy || (r.HostSpin[0]+r.HostSpin[1])/2 > limit {
					dropped++
				} else {
					kept = append(kept, r)
				}
			}
			side[w] = kept
		}
	}
	return dropped
}

// load reads every end-to-end result under a directory or glob, grouped
// by workload in file order.
func load(set string) (map[string][]run, error) {
	pattern := set
	if st, err := os.Stat(set); err == nil && st.IsDir() {
		pattern = filepath.Join(set, "*.json")
	}
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %s", pattern)
	}
	sort.Strings(files)
	out := map[string][]run{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var runs []run
		if err := json.Unmarshal(data, &runs); err != nil {
			var one run
			if err := json.Unmarshal(data, &one); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			runs = []run{one}
		}
		for _, r := range runs {
			if r.Mode == "end_to_end" {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

func values(runs []run, metric string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[metric].Value
	}
	return v
}

type row struct {
	oldQ, newQ  [3]float64 // q1, median, q3
	worse       float64    // relative worsening of the median; negative is better
	wins, pairs int
	verdict     string
}

func judge(old, new []float64, lowerIsBetter bool, bound float64) row {
	r := row{oldQ: quartiles(old), newQ: quartiles(new)}
	sign := 1.0
	if !lowerIsBetter {
		sign = -1
	}
	base := math.Abs(r.oldQ[1])
	if base == 0 {
		base = 1
	}
	r.worse = sign * (r.newQ[1] - r.oldQ[1]) / base
	r.pairs = min(len(old), len(new))
	for i := 0; i < r.pairs; i++ {
		if sign*(new[i]-old[i]) < 0 {
			r.wins++
		}
	}
	oldIQR, newIQR := r.oldQ[2]-r.oldQ[0], r.newQ[2]-r.newQ[0]
	switch {
	case math.Max(oldIQR, newIQR)/base > bound:
		r.verdict = "unresolved"
	case r.worse > bound:
		r.verdict = "regressed"
	case r.worse < 0 && r.pairs >= 10 && 10*r.wins >= 9*r.pairs && math.Abs(r.newQ[1]-r.oldQ[1]) > oldIQR:
		r.verdict = "improved"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// quartiles matches Python's statistics.quantiles(v, n=4), the rule the
// benchmark's driver uses.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
