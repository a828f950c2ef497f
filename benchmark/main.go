// Command benchmark is the repo's reference benchmark: four closed-loop
// workloads over the perm engine, five end-to-end metrics measured with
// tracing off, and per-layer metrics from a separate traced run that times
// calls into each layer's public functions from outside. See README.md.
//
//	bash benchmark/run.sh                        # every workload, untraced then traced
//	bash benchmark/run.sh --workload scan_join --seed 7 --seconds 25 --trace 0
//	bash benchmark/run.sh -runs 10 -out out/a.json
//	bash benchmark/run.sh -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "", "run one workload in this process and print its result line (default: the whole suite)")
	seed := flag.Int64("seed", 1, "seed of the generated data and statements")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	smoke := flag.Bool("smoke", false, "tiny data and short lists, for tests")
	runs := flag.Int("runs", 1, "suite: untraced runs per workload, each with its own seed, starting at -seed")
	out := flag.String("out", "out/result.json", "suite: where to write the results")
	compare := flag.Bool("compare", false, "compare two suite result files given as arguments")
	updateGolden := flag.Bool("update-golden", false, "rewrite golden/<workload>.json from the reference executor (full size, seed 1)")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		var clean bool
		if clean, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && !clean {
			os.Exit(1)
		}
	case *workload == "":
		err = suite(suiteConfig{seed: *seed, seconds: *seconds, smoke: *smoke, runs: *runs, out: *out, updateGolden: *updateGolden})
	default:
		cfg := config{workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, smoke: *smoke, updateGolden: *updateGolden}
		var res result
		if cfg.trace {
			res, err = traced(cfg)
		} else {
			res, err = measure(cfg)
		}
		if err != nil {
			break
		}
		line, merr := json.Marshal(res)
		if merr != nil {
			err = merr
			break
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}
