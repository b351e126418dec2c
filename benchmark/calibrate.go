package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// runSet is what collect writes and calibrate and compare read: every user
// metric of every run, per workload.
type runSet struct {
	Runs    int                             `json:"runs"`
	Seed    int                             `json:"seed"` // of the first run
	Seconds int                             `json:"seconds"`
	Values  map[string]map[string][]float64 `json:"values"` // workload -> metric -> one value per run
}

const (
	boundFloor   = 0.05 // no bound is tighter than this
	boundCeiling = 0.25 // nor looser: the most the driver's contract allows
	demoteSpread = 0.10 // a metric spreading by more than this is no gate
)

// quartiles follows Python's statistics.quantiles(v, n=4) (exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		d := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-d) + x[j]*d) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// collect runs the full workload set runs times, one process per run with
// seeds seed..seed+runs-1, and returns every user metric of every run.
func collect(bf *benchFile, runs, seed int) (*runSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &runSet{Runs: runs, Seed: seed, Seconds: bf.RunSeconds, Values: map[string]map[string][]float64{}}
	for run := 1; run <= runs; run++ {
		for _, w := range bf.Workloads {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(seed+run-1),
				"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0", "--all")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.Name, seed+run-1, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return nil, fmt.Errorf("%s seed %d: result line: %w", w.Name, seed+run-1, err)
			}
			if set.Values[w.Name] == nil {
				set.Values[w.Name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				set.Values[w.Name][name] = append(set.Values[w.Name][name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", run, runs, w.Name)
		}
	}
	return set, nil
}

func (set *runSet) write(path string) error {
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readRunSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// runFlags are the flags collect and calibrate share.
func runFlags(name string) (fs *flag.FlagSet, runs, seed *int, out *string) {
	fs = flag.NewFlagSet(name, flag.ContinueOnError)
	runs = fs.Int("runs", 5, "runs of the full set")
	seed = fs.Int("seed", 1, "seed of the first run; each further run takes the next one")
	out = fs.String("out", "", "file for the collected values (default benchmark/out/runs-<time>.json)")
	return fs, runs, seed, out
}

// collectTo collects a fresh run set and writes it to out.
func collectTo(bf *benchFile, benchPath string, runs, seed int, out string) (*runSet, error) {
	set, err := collect(bf, runs, seed)
	if err != nil {
		return nil, err
	}
	if out == "" {
		out = filepath.Join(filepath.Dir(benchPath), "benchmark", "out", fmt.Sprintf("runs-%d.json", time.Now().Unix()))
	}
	if err := set.write(out); err != nil {
		return nil, err
	}
	fmt.Printf("collected values written to %s\n", out)
	return set, nil
}

// distributions prints every user metric's distribution per set and
// workload, and returns each metric's worst spread and whether it exists
// (is never 0) on every workload. A set that lacks a metric - one collected
// before the metric was defined as it is now - says nothing about it.
func distributions(bf *benchFile, sets []*runSet) (worst map[string]float64, everywhere map[string]bool) {
	worst, everywhere = map[string]float64{}, map[string]bool{}
	fmt.Printf("%-3s %-16s %-34s %12s %12s %12s %8s %12s %12s\n", "set", "workload", "metric", "median", "q1", "q3", "spread", "min", "max")
	for i, set := range sets {
		for _, w := range bf.Workloads {
			for _, m := range userMetrics {
				v := set.Values[w.Name][m.Name]
				if len(v) == 0 {
					continue
				}
				sorted := append([]float64(nil), v...)
				sort.Float64s(sorted)
				if _, seen := everywhere[m.Name]; !seen || sorted[0] == 0 {
					everywhere[m.Name] = sorted[0] != 0
				}
				q1, q2, q3 := quartiles(v)
				s := spread(v)
				worst[m.Name] = math.Max(worst[m.Name], s)
				fmt.Printf("%-3d %-16s %-34s %12.4f %12.4f %12.4f %8.4f %12.4f %12.4f\n", i+1, w.Name, m.Name, q2, q1, q3, s, sorted[0], sorted[len(sorted)-1])
			}
		}
	}
	return worst, everywhere
}

// collectMain runs the full workload set -runs times and writes the values
// for compare or calibrate to read. It leaves BENCHMARK.json alone.
func collectMain(args []string) int {
	fs, runs, seed, out := runFlags("collect")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, path, err := loadBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "collect:", err)
		return 2
	}
	set, err := collectTo(bf, path, *runs, *seed, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "collect:", err)
		return 1
	}
	distributions(bf, []*runSet{set})
	return 0
}

// gate splits the metrics into the bounded end-to-end list and the
// per-layer list. A user metric is gated when every workload has it, never
// 0 (the driver's contract applies one list to all of them), and its worst
// spread is at most demoteSpread; its bound is 3 x that spread within
// [floor, ceiling], so that the spread stays under a third of the bound
// where the ceiling allows. setup_s is mandatory and gets the ceiling.
func gate(worst map[string]float64, everywhere map[string]bool) (endToEnd, perLayer []benchMetric) {
	for _, m := range userMetrics {
		switch {
		case m.Name == "setup_s":
			endToEnd = append(endToEnd, benchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: boundCeiling})
		case everywhere[m.Name] && worst[m.Name] <= demoteSpread:
			bound := math.Min(boundCeiling, math.Max(boundFloor, math.Ceil(3*worst[m.Name]*100)/100))
			endToEnd = append(endToEnd, benchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: bound})
		default:
			why := fmt.Sprintf("worst spread %.4f > %.2f", worst[m.Name], demoteSpread)
			if !everywhere[m.Name] {
				why = "absent or 0 on some workload"
			}
			fmt.Printf("not gated: %s (%s)\n", m.Name, why)
			perLayer = append(perLayer, benchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
		}
	}
	for _, m := range layerMetrics {
		perLayer = append(perLayer, benchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return endToEnd, perLayer
}

// calibrateMain rewrites the metric lists of BENCHMARK.json from run sets of
// one commit: the ones named as arguments, else a fresh one of -runs runs.
// The lists are a function of the metrics this command defines and the
// spreads in the sets alone, not of what the file held before, so a metric
// that was demoted on a noisy day comes back on a quiet one.
func calibrateMain(args []string) int {
	fs, runs, seed, out := runFlags("calibrate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, path, err := loadBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		return 2
	}
	var sets []*runSet
	for _, p := range fs.Args() {
		set, err := readRunSet(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			return 2
		}
		sets = append(sets, set)
	}
	if len(sets) == 0 {
		set, err := collectTo(bf, path, *runs, *seed, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			return 1
		}
		sets = append(sets, set)
	}
	bf.EndToEnd, bf.PerLayer = gate(distributions(bf, sets))
	if err := bf.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		return 1
	}
	fmt.Printf("metric lists and bounds written to %s\n", path)
	return 0
}

// compareMain prints one row per user metric x workload for two run sets.
// A gated metric is judged against its bound and decides the exit code; an
// ungated one (no bound: "-") is judged against the two sets' own spreads,
// so that a change in throughput or latency is at least seen.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.json NEW.json")
		return 2
	}
	bf, _, err := loadBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var sets [2]*runSet
	for i, p := range args {
		if sets[i], err = readRunSet(p); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var regressed, seen int
	fmt.Printf("%-16s %-34s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, w := range bf.Workloads {
		for _, d := range userMetrics {
			base, cur := sets[0].Values[w.Name][d.Name], sets[1].Values[w.Name][d.Name]
			if len(base) == 0 || len(cur) == 0 {
				continue
			}
			m := benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: bounds[d.Name]}
			verdict, ratio, b, n := verdictFor(m, base, cur)
			if b == 0 && n == 0 {
				continue // the workload has no such op
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.2f", m.Bound)
				if verdict == "regressed" {
					regressed++
				}
			} else if verdict == "regressed" {
				seen++
			}
			fmt.Printf("%-16s %-34s %14.4f %14.4f %8.4f %6s  %s\n", w.Name, d.Name, b, n, ratio, bound, verdict)
		}
	}
	fmt.Printf("%d gated and %d ungated metric x workload pairs regressed\n", regressed, seen)
	if regressed > 0 {
		return 1
	}
	return 0
}

// verdictFor compares medians. With a bound: unresolved when either side's
// own spread is wider than the bound, regressed when the new median is worse
// by more than the bound, improved when it is better by more than the base's
// spread, else unchanged. Without one the yardstick is the wider of the two
// sets' spreads: worse or better by more than that is regressed or improved,
// anything less is unresolved.
func verdictFor(m benchMetric, base, cur []float64) (verdict string, ratio, b, n float64) {
	_, b, _ = quartiles(base)
	_, n, _ = quartiles(cur)
	if b == 0 {
		return "unresolved", 0, b, n
	}
	ratio = n / b
	worse := ratio - 1
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	sb, sn := spread(base), spread(cur)
	switch {
	case m.Bound == 0 && worse > math.Max(sb, sn):
		verdict = "regressed"
	case m.Bound == 0 && -worse > math.Max(sb, sn):
		verdict = "improved"
	case m.Bound == 0 || sb > m.Bound || sn > m.Bound:
		verdict = "unresolved"
	case worse > m.Bound:
		verdict = "regressed"
	case -worse > sb:
		verdict = "improved"
	default:
		verdict = "unchanged"
	}
	return verdict, ratio, b, n
}
