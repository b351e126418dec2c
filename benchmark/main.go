// Command benchmark is the repository's benchmark: five steady-state
// workloads driven closed-loop through the root bg3 API, the end-to-end
// metrics a user would see, and a traced run that times each layer from
// outside. See README.md.
//
//	benchmark --workload follow-hot --seed 1 --seconds 10 --trace 0
//	benchmark collect -runs 5 -out A.json
//	benchmark calibrate A.json B.json
//	benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "collect":
			os.Exit(collectMain(os.Args[2:]))
		case "calibrate":
			os.Exit(calibrateMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	emitAll := fs.Bool("all", false, "put every metric the run computed in the result line, not only the ones BENCHMARK.json lists for the mode (collect uses this)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := specByName(*workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	bf, _, err := loadBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cfg := runConfig{
		sp: sp, seed: *seed, seconds: *seconds,
		scale: 1, clients: defaultClients(), setups: 3, outDir: "benchmark/out",
		log:     func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		emitAll: *emitAll,
	}
	res, err := runOnce(cfg, bf, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOnce performs one run of one workload and selects the metrics
// BENCHMARK.json lists for the mode.
func runOnce(cfg runConfig, bf *benchFile, traced bool) (*result, error) {
	runtime.GOMAXPROCS(cfg.clients)
	var (
		values   map[string]float64
		res      *phaseResult
		guardErr error
		err      error
	)
	if traced {
		values, res, err = runTraced(cfg)
	} else {
		values, res, err = runMeasured(cfg)
	}
	if err != nil {
		return nil, err
	}
	// The regime guards describe the full-size workloads. A shrunken one
	// (the package test) is in another regime by construction - a three-page
	// cache holds the Zipf head - so there only the oracle applies.
	if cfg.scale == 1 {
		if guardErr = cfg.sp.guard(res); guardErr == nil && res.rssPeakMB > 3072 {
			guardErr = fmt.Errorf("peak RSS %.0f MB exceeds 3 GB", res.rssPeakMB)
		}
	}
	for _, v := range res.violations {
		cfg.log("VIOLATION %s", v)
	}
	if guardErr != nil {
		cfg.log("GUARD %s: %v", cfg.sp.name, guardErr)
	}

	out := &result{
		Correct:   res.failed == 0 && guardErr == nil,
		Attempted: max(res.ops, 1),
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	var names []string
	if traced {
		for _, m := range bf.PerLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range bf.EndToEnd {
			names = append(names, m.Name)
		}
	}
	if cfg.emitAll {
		names = names[:0]
		for name := range values {
			names = append(names, name)
		}
	}
	for _, name := range names {
		def, ok := metricByName(name)
		val, have := values[name]
		if !ok || !have {
			return nil, fmt.Errorf("BENCHMARK.json lists %q, which this mode does not compute", name)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
		out.Metrics[name] = metricValue{Value: val, Unit: def.Unit}
	}

	// Every metric by name with its unit, for a reader; the result line
	// follows.
	all := make([]string, 0, len(values))
	for name := range values {
		all = append(all, name)
	}
	sort.Strings(all)
	cfg.log("regime: cache hit ratio %.3f, edge-block hit ratio %.3f (%.0f builds), overwrite share %.3f, txn share %.3f, %d extents reclaimed, peak RSS %.0f MB",
		res.cacheHitRatio, res.blockHitRatio, delta(res.before, res.after, "bwtree.block_builds"), float64(res.overwrites)/float64(max(res.classOps[clsWrite], 1)),
		float64(res.classOps[clsTxn])/float64(max(res.ops, 1)), res.extentsReclaimed, res.rssPeakMB)
	cfg.log("%s seed=%d clients=%d seconds=%g traced=%v ops=%d edges=%d read_n=%d write_n=%d txn_n=%d", cfg.sp.name, cfg.seed,
		cfg.clients, cfg.seconds, traced, res.ops, res.edges, res.latN[clsRead], res.latN[clsWrite], res.latN[clsTxn])
	for _, name := range all {
		def, _ := metricByName(name)
		cfg.log("  %-36s %14.4f %s", name, values[name], def.Unit)
	}
	return out, nil
}

// runMeasured is the untraced run: the database is set up cfg.setups times
// (setup_s is the median), and the last instance is measured.
func runMeasured(cfg runConfig) (map[string]float64, *phaseResult, error) {
	sz := cfg.sp.sizes(cfg.scale)
	opts := cfg.sp.opts(cfg.scale)
	var (
		st        *stack
		wall, cpu []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		var t setupTime
		var err error
		st, t, err = openLoaded(cfg.sp, sz, cfg.seed, func() (*stack, error) { return openRoot(cfg.sp, opts) })
		if err != nil {
			return nil, nil, err
		}
		wall, cpu = append(wall, t.wallS), append(cpu, t.cpuS)
	}
	cfg.log("set-ups: wall %.4f s, CPU %.4f s", wall, cpu)
	defer st.close()
	ref := buildReference(cfg.sp, sz, cfg.seed, cfg.sp == recommendCold)
	runtime.GC()
	res, err := runPhase(cfg, st, ref, sz)
	if err != nil {
		return nil, nil, err
	}
	// The pass, its clients and the reference model are garbage from here on.
	res.heapLiveMB = liveHeapMB()
	return userValues(res, median(cpu)), res, nil
}
