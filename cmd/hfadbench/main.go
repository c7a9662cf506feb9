// Command hfadbench regenerates every exhibit and experiment of
// internal/bench: the paper's Table 1 and Figure 1, and the claim-derived
// experiments E1–E9 and E13–E18 against the hierarchical baseline. The
// accepted end-to-end benchmark is `go run ./benchmark`.
//
// Usage:
//
//	hfadbench                  # run everything at full scale
//	hfadbench -scale smoke     # seconds-fast versions
//	hfadbench -run E1,E3,E7    # a subset
//	hfadbench -list            # show the experiment index
//	hfadbench -json out.json   # also write machine-readable results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

// jsonResult is one experiment's machine-readable record — the format of
// the frozen BENCH_pr3–BENCH_pr8.json files (the perf trajectory now lives
// in benchmark/results/).
type jsonResult struct {
	ID     string      `json:"id"`
	Name   string      `json:"name"`
	Claim  string      `json:"claim,omitempty"`
	Scale  string      `json:"scale"`
	Millis float64     `json:"wall_ms"`
	Tables []jsonTable `json:"tables"`
	Notes  []string    `json:"notes,omitempty"`
	Error  string      `json:"error,omitempty"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func main() {
	runIDs := flag.String("run", "", "comma-separated experiment ids (default: all)")
	scaleFlag := flag.String("scale", "full", "smoke | full")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "write machine-readable results to this file")
	flag.Parse()

	if *list {
		fmt.Println("id    experiment")
		fmt.Println("---   ----------")
		for _, r := range bench.All() {
			fmt.Printf("%-5s %s\n", r.ID, r.Name)
		}
		return
	}

	var scale bench.Scale
	switch *scaleFlag {
	case "smoke":
		scale = bench.Smoke
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want smoke or full)\n", *scaleFlag)
		os.Exit(2)
	}

	var runners []bench.Runner
	if *runIDs == "" {
		runners = bench.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			r := bench.Find(strings.TrimSpace(id))
			if r == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, *r)
		}
	}

	fmt.Printf("hFAD experiment harness — %d experiment(s), scale=%s\n\n", len(runners), *scaleFlag)
	failed := 0
	var records []jsonResult
	for _, r := range runners {
		t0 := time.Now()
		res, err := r.Run(scale)
		elapsed := time.Since(t0)
		rec := jsonResult{
			ID:     r.ID,
			Name:   r.Name,
			Scale:  *scaleFlag,
			Millis: float64(elapsed.Nanoseconds()) / 1e6,
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", r.ID, err)
			rec.Error = err.Error()
			records = append(records, rec)
			failed++
			continue
		}
		rec.Claim = res.Claim
		rec.Notes = res.Notes
		for _, tbl := range res.Tables {
			rec.Tables = append(rec.Tables, jsonTable{
				Title:   tbl.Title,
				Columns: tbl.Columns,
				Rows:    tbl.Rows(),
			})
		}
		records = append(records, rec)
		fmt.Print(res.String())
		fmt.Printf("(%s in %s)\n\n", r.ID, elapsed.Round(time.Millisecond))
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal results: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
