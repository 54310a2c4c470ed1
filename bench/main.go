// Command bench is the repository's benchmark: it assembles the full serve
// stack (edge, admission, controller, bean cache, framed wire, container,
// durable rdb) from the program's public constructors, drives it over
// loopback HTTP with one of four seeded traffic mixes, verifies every
// response, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1) as the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload  = flag.String("workload", "", "traffic mix: anon_hot, session_hot, session_cold or write_mix")
		seed      = flag.Int64("seed", 1, "seed of the request stream and the arrival process")
		seconds   = flag.Float64("seconds", 24, "measured seconds: two thirds closed phase, one third open phase")
		trace     = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
		appendTo  = flag.String("o", "", "append the run's full report as one JSON line to this file (input of -compare)")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for <workload>.json and <workload>.trace.json")
		compare   = flag.Bool("compare", false, "compare two report files: -compare base.jsonl new.jsonl")
		calibrate = flag.Bool("calibrate", false, "print the open-phase rate to freeze for -workload (all when empty)")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare base.jsonl new.jsonl"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	case *calibrate:
		if err := calibrateRates(*workload, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		spec, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		rep, err := run(defaultConfig(spec, *seed, *seconds, *trace != 0, *outDir))
		if err != nil {
			fatal(err)
		}
		if err := writeReports(rep, *outDir, *appendTo); err != nil {
			fatal(err)
		}
		if rep.WallS > maxWallS {
			fatal(fmt.Errorf("the run took %.0f s; the driver allows %d", rep.WallS, maxWallS))
		}
		for _, m := range rep.Failures {
			fmt.Fprintln(os.Stderr, "bench: FAIL", m)
		}
		line, err := json.Marshal(rep.result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

// maxWallS is the driver's limit on one run, in seconds.
const maxWallS = 180

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// defaultConfig is the configuration the driver's command line selects.
// A traced run sets up once: setup_s is an end-to-end metric.
func defaultConfig(spec workloadSpec, seed int64, seconds float64, trace bool, outDir string) runConfig {
	cfg := runConfig{Spec: spec, Seed: seed, Seconds: seconds, Trace: trace, Setups: 5, Replay: replayLen, OutDir: outDir,
		Root: filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))}
	if trace {
		cfg.Setups = 1
	}
	return cfg
}

// calibrateRates makes three runs per workload and prints half the median
// closed-phase throughput rounded to 50 req/s: the rate to freeze in
// metrics.go.
func calibrateRates(only string, seed int64, seconds float64) error {
	for _, spec := range workloads {
		if only != "" && only != spec.Name {
			continue
		}
		var tput []float64
		for i := 0; i < 3; i++ {
			cfg := defaultConfig(spec, seed+int64(i), seconds, false, "")
			cfg.Setups = 1
			rep, err := run(cfg)
			if err != nil {
				return err
			}
			tput = append(tput, rep.Demoted["throughput_rps"].Value)
		}
		rate := math.Round(median(tput)/2/50) * 50
		fmt.Printf("%-14s closed throughput %.0f req/s -> open rate %.0f req/s (frozen: %.0f)\n", spec.Name, tput, rate, spec.Rate)
	}
	return nil
}
