// Command report runs the reproduction battery and writes a markdown
// report with paper-vs-measured verdicts for every checked artifact.
//
// Usage:
//
//	report [-n instructions] [-seed seed] [-parallel workers] [-timing]
//	       [-o REPORT.md]
//
// With -o "" (default) the report goes to stdout. -parallel sizes the
// worker pool the experiments fan out across (0 = GOMAXPROCS, 1 =
// sequential); the generated report is identical at any setting. -timing
// prints a per-workload/per-experiment wall-time breakdown to stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"fomodel/internal/experiments"
	"fomodel/internal/report"
)

func main() {
	n := flag.Int("n", 500000, "dynamic instructions per workload")
	seed := flag.Uint64("seed", 1, "workload generation seed")
	out := flag.String("o", "", "output file (default: stdout)")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	timing := flag.Bool("timing", false, "print a timing breakdown to stderr")
	flag.Parse()

	suite := experiments.NewSuite(*n, *seed)
	suite.Workers = *parallel
	var timings *experiments.Timings
	if *timing {
		timings = &experiments.Timings{}
		suite.Timings = timings
	}
	r, err := report.Generate(suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := r.Write(w); err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
	if *timing {
		fmt.Fprint(os.Stderr, timings.Render())
		suite.WriteCounters(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "report: %d/%d checks passed\n", r.Passed, r.Total)
	if r.Passed < r.Total {
		os.Exit(2)
	}
}
