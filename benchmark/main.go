// Command benchmark is the repository's performance benchmark: four
// closed-loop, single-client workloads against the hfad library on an
// in-memory device that counts calls and models power loss. See README.md
// in this directory for the metrics, the workloads and the reasons behind
// both.
//
//	go run ./benchmark                                  every workload, end-to-end metrics
//	go run ./benchmark -workload query_spill -trace 1   one workload, per-layer metrics
//	go run ./benchmark -out a.jsonl                     also append the results to a file
//	go run ./benchmark -compare a.jsonl b.jsonl         compare two such files
//	go run ./benchmark -scale smoke                     every workload in a fraction of a second
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one run in an -out file.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four)")
		seed         = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 15, "length of the measured phase: each workload runs its rate × seconds operations")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones, spans in "+spansDir)
		scale        = flag.String("scale", "full", "full or smoke")
		out          = flag.String("out", "", "append one JSON record per run to this file")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	if *scale != "full" && *scale != "smoke" {
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	todo := specs
	if *workloadName != "" {
		sp := specByName(*workloadName)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		todo = []spec{*sp}
	}
	for _, sp := range todo {
		cfg := newConfig(sp, *seed, *seconds, *trace != 0, *scale)
		res, err := run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		if err := emit(os.Stdout, &cfg, res); err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := appendRecord(*out, &cfg, res); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// reported picks the metrics a run reports: the per-layer ones when traced
// (its end-to-end numbers carry the tracing), the end-to-end ones otherwise.
func reported(cfg *config, res *result) map[string]metric {
	if cfg.trace {
		return res.layers
	}
	return res.endToEnd
}

// emit prints every metric by name with its unit, then, as the last line,
// the run as one JSON object.
func emit(w io.Writer, cfg *config, res *result) error {
	ms := reported(cfg, res)
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s  seed %d  trace %t  measured %d ops in %.2f s  attempted %d  failed %d  stream %016x\n",
		cfg.spec.name, cfg.seed, cfg.trace, res.ops, res.measured.Seconds(), res.attempted, res.failed, res.streamHash)
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
	for c, p50 := range res.classP50 {
		if p50 > 0 {
			fmt.Fprintf(w, "  p50 of %-27s %14.6g ms\n", classNames[c], p50)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, cfg *config, res *result) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	tr := 0
	if cfg.trace {
		tr = 1
	}
	return json.NewEncoder(f).Encode(record{cfg.spec.name, cfg.seed, tr, res.attempted, res.failed, reported(cfg, res)})
}
