// Command hfadbench regenerates every exhibit and experiment of
// internal/bench: the paper's Table 1 and Figure 1, and the claim-derived
// experiments E1–E9 against the hierarchical baseline. It reproduces the
// paper only; the store's own performance is measured by
// `go run ./benchmark`.
//
// Usage:
//
//	hfadbench                  # run everything at full scale
//	hfadbench -scale smoke     # seconds-fast versions
//	hfadbench -run E1,E3,E7    # a subset
//	hfadbench -list            # show the experiment index
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	runIDs := flag.String("run", "", "comma-separated experiment ids (default: all)")
	scaleFlag := flag.String("scale", "full", "smoke | full")
	list := flag.Bool("list", false, "list experiments and exit")
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
	for _, r := range runners {
		t0 := time.Now()
		res, err := r.Run(scale)
		elapsed := time.Since(t0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", r.ID, err)
			failed++
			continue
		}
		fmt.Print(res.String())
		fmt.Printf("(%s in %s)\n\n", r.ID, elapsed.Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
