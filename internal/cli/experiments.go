package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fomodel/internal/experiments"
)

// Experiments implements cmd/experiments: regenerate paper tables and
// figures by label. Independent experiments fan out across a bounded
// worker pool (-parallel), but their outputs are always written in label
// order, so any -parallel value produces byte-identical output (modulo
// the wall-time annotations suppressed by -quiet).
func Experiments(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	n := fs.Int("n", 500000, "dynamic instructions per workload")
	seed := fs.Uint64("seed", 1, "workload generation seed")
	list := fs.Bool("list", false, "list experiment labels and exit")
	csv := fs.Bool("csv", false, "emit CSV for tabular experiments")
	outDir := fs.String("out", "", "write outputs to this directory instead of stdout")
	quiet := fs.Bool("quiet", false, "suppress timing lines")
	parallel := fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	timing := fs.Bool("timing", false, "print a per-workload/per-experiment timing breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := experiments.DefaultRegistry()
	if *list {
		for _, l := range reg.Labels() {
			fmt.Fprintln(out, l)
		}
		return nil
	}

	labels := fs.Args()
	if len(labels) == 0 {
		labels = reg.Labels()
	}
	for _, label := range labels {
		if _, ok := reg[label]; !ok {
			return fmt.Errorf("experiments: unknown experiment %q (try -list)", label)
		}
	}

	suite := experiments.NewSuite(*n, *seed)
	suite.Workers = *parallel
	var timings *experiments.Timings
	if *timing {
		timings = &experiments.Timings{}
		suite.Timings = timings
	}

	// Each experiment renders on its worker; the emit callback writes the
	// finished bodies in label order on this goroutine.
	type rendered struct {
		body, ext string
		elapsed   time.Duration
	}
	err := experiments.RunOrdered(*parallel, len(labels), func(i int) (rendered, error) {
		label := labels[i]
		start := time.Now()
		res, err := reg[label](ctx, suite)
		if err != nil {
			return rendered{}, fmt.Errorf("experiments: %s: %w", label, err)
		}
		r := rendered{body: res.Render(), ext: "txt", elapsed: time.Since(start)}
		if *csv {
			if c, ok := res.(interface{ CSV() string }); ok {
				r.body, r.ext = c.CSV(), "csv"
			}
		}
		timings.Record("experiment", label, r.elapsed)
		return r, nil
	}, func(i int, r rendered) error {
		label := labels[i]
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, label+"."+r.ext)
			if err := os.WriteFile(path, []byte(r.body), 0o644); err != nil {
				return err
			}
			if !*quiet {
				fmt.Fprintf(out, "== %s (%.1fs) → %s\n", label, r.elapsed.Seconds(), path)
			}
			return nil
		}
		if *quiet {
			fmt.Fprintf(out, "== %s ==\n%s\n", label, r.body)
		} else {
			fmt.Fprintf(out, "== %s (%.1fs) ==\n%s\n", label, r.elapsed.Seconds(), r.body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if *timing {
		if body := timings.Render(); body != "" {
			fmt.Fprint(out, body)
		}
		suite.WriteCounters(out)
	}
	return nil
}
