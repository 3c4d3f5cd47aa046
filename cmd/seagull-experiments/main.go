// Command seagull-experiments regenerates the paper's tables and figures on
// the synthetic substrate (see DESIGN.md's per-experiment index) and prints
// them as markdown on stdout: each experiment's claims as one "paper vs
// ours" table, then the tables its claims do not state.
//
// Usage:
//
//	seagull-experiments -list
//	seagull-experiments -run fig3,fig12a
//	seagull-experiments -run all -scale full > experiments-full.md
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"seagull/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("seagull-experiments: ")

	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale   = flag.String("scale", "small", "small or full")
		seed    = flag.Int64("seed", 1, "experiment seed")
		workers = flag.Int("workers", 0, "parallel partitions (0 = NumCPU)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.Options{Seed: *seed, Workers: *workers}
	switch *scale {
	case "small":
		opts.Scale = experiments.ScaleSmall
	case "full":
		opts.Scale = experiments.ScaleFull
	default:
		log.Fatalf("unknown scale %q (want small or full)", *scale)
	}

	selected := experiments.All
	if *run != "all" {
		selected = nil
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				var known []string
				for _, e := range experiments.All {
					known = append(known, e.ID)
				}
				log.Fatalf("unknown experiment %q (use -list); known: %s", id, strings.Join(known, ", "))
			}
			selected = append(selected, e)
		}
	}

	failures := 0
	for _, e := range selected {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			log.Printf("%s FAILED: %v", e.ID, err)
			failures++
			continue
		}
		fmt.Printf("## %s\n\n", e.Title)
		fmt.Printf("Paper: %s.\n\n", e.Paper)
		for _, tb := range res.Render() {
			fmt.Println(tb.Markdown())
		}
		fmt.Printf("_Regenerated in %v._\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failures > 0 {
		os.Exit(1)
	}
}
