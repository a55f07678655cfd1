// Command priuperf is the repository's end-to-end benchmark. It builds one
// of three seeded workloads, drives a real priuserve through priu/client
// with a single closed-loop client (one request at a time on one
// connection), checks every served model bit for bit against an in-process
// twin, and prints one JSON result line.
//
//	priuperf --server bin/priuserve --workdir scratch \
//	         --workload hot-deletes --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 repeats that run and
// then hosts the same service.Server + store.Tiered wiring in this process,
// timing calls into each layer from outside, and reports the per-layer
// metrics, a per-layer table and a span file. See README.md for the
// workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/par"
)

// options are the benchmark's command-line settings. Everything that could
// vary between runs of the same seed is pinned here and passed identically
// to priuserve and to the in-process twin.
type options struct {
	workload        string
	seed            int64
	seconds         int
	trace           int
	server          string
	workdir         string
	workers         int
	parMinWork      int
	spillGCInterval string
	slowOpMs        int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "hot-deletes | whatif-preview | cold-churn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "work size: the timed operation count scales linearly with it")
	flag.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from an added traced run")
	flag.StringVar(&o.server, "server", "", "priuserve binary")
	flag.StringVar(&o.workdir, "workdir", "", "directory for store dirs and the span file")
	flag.IntVar(&o.workers, "workers", 2, "kernel workers in priuserve and in the twin")
	flag.IntVar(&o.parMinWork, "par-minwork", 32768, "pinned par cutoffs in priuserve and in the twin")
	flag.StringVar(&o.spillGCInterval, "spill-gc-interval", "0", "priuserve -spill-gc-interval")
	flag.IntVar(&o.slowOpMs, "slow-op-ms", 0, "priuserve -slow-op-ms")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "priuperf: %v\n", err)
		os.Exit(1)
	}
}

// result is the driver's JSON contract: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) error {
	spec, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown --workload %q (one of %s)", o.workload, strings.Join(names, ", "))
	}
	if o.server == "" || o.workdir == "" {
		return fmt.Errorf("--server and --workdir are required")
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	// The twin must compute bit-identical models, so it runs on the same
	// worker count and chunking cutoffs as the server.
	par.SetWorkers(o.workers)
	par.SetCutoffs(o.parMinWork, o.parMinWork)

	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	plain, err := runPlain(o, spec, filepath.Join(dir, "plain"))
	if err != nil {
		return err
	}
	res := result{
		Correct:   len(plain.problems) == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
	}
	if o.trace == 0 {
		res.Metrics = plain.endToEnd()
		printEndToEnd(o, plain)
	} else {
		traced, err := runTraced(o, spec, filepath.Join(dir, "traced"))
		if err != nil {
			return err
		}
		res.Correct = res.Correct && len(traced.problems) == 0
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Metrics = perLayer(plain, traced)
		spanFile := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
		if err := traced.rec.writeFile(spanFile); err != nil {
			return err
		}
		printLayerTable(o, plain, traced, res.Metrics, spanFile)
		plain.problems = append(plain.problems, traced.problems...)
	}
	for _, p := range plain.problems {
		fmt.Fprintf(os.Stderr, "priuperf: CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// elapsedMs is the wall time since t in milliseconds.
func elapsedMs(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
