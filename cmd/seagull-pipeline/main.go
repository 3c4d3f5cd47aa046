// Command seagull-pipeline runs the weekly AML-pipeline analog for one or
// more regions and weeks: ingestion, validation, feature extraction, model
// training/inference, deployment/tracking, accuracy evaluation, and result
// persistence (Section 2.2). After the final week it can also run the
// backup scheduler (Section 2.3).
//
// Usage:
//
//	seagull-pipeline -data ./seagull-data -region westus -weeks 0-3 -model pf-prev-day -schedule
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"seagull"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("seagull-pipeline: ")

	var (
		dataDir  = flag.String("data", "./seagull-data", "data directory with the lake")
		region   = flag.String("region", "westus", "region to process")
		weeksArg = flag.String("weeks", "0-3", "weeks to run: N, N-M or comma list")
		model    = flag.String("model", seagull.ModelPersistentPrevDay, "forecast model to deploy")
		workers  = flag.Int("workers", 0, "parallel partitions (0 = NumCPU)")
		seed     = flag.Int64("seed", 1, "seed for stochastic models")
		schedule = flag.Bool("schedule", false, "run the backup scheduler after the final week")
	)
	flag.Parse()

	weeks, err := parseWeeks(*weeksArg)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := seagull.NewSystem(seagull.SystemConfig{DataDir: *dataDir, Persist: true})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	for _, week := range weeks {
		res, err := sys.RunWeek(seagull.PipelineConfig{
			Region: *region, Week: week, ModelName: *model,
			Workers: *workers, Seed: *seed,
		})
		if err != nil {
			log.Fatalf("week %d: %v", week, err)
		}
		fmt.Printf("week %d: servers=%d rows=%d predicted=%d evaluated=%d reused-weeks=%d\n",
			week, res.Servers, res.Rows, res.Predicted, res.Evaluated, res.ReusedWeeks)
		fmt.Printf("  accuracy: LL-correct=%.2f%% LL-accurate=%.2f%% predictable=%.2f%%\n",
			100*res.Summary.PctCorrect, 100*res.Summary.PctAccurate, 100*res.Summary.PctPredictable)
		fmt.Printf("  classes: %s\n", res.Classes)
		if res.Validation != nil && !res.Validation.Valid {
			fmt.Printf("  validation anomalies: %d\n", len(res.Validation.Anomalies))
		}
		for _, st := range res.StageTimings {
			fmt.Printf("  %-20s %v\n", st.Stage, st.Duration.Round(1000))
		}
	}

	if *schedule {
		final := weeks[len(weeks)-1]
		decisions, err := sys.ScheduleBackups(*region, final)
		if err != nil {
			log.Fatal(err)
		}
		predicted := 0
		for _, d := range decisions {
			if d.Source == "predicted" {
				predicted++
			}
		}
		fmt.Printf("scheduler: %d decisions, %d moved to predicted LL windows, %d kept defaults\n",
			len(decisions), predicted, len(decisions)-predicted)
	}

	sum := sys.DashboardSummary()
	fmt.Printf("dashboard: runs=%d ok=%d failed=%d mean=%v\n",
		sum.Runs, sum.Succeeded, sum.Failed, sum.MeanRuntime.Round(1000))
}

// parseWeeks accepts "3", "0-3" or "0,2,3".
func parseWeeks(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if from, to, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.Atoi(from)
		b, err2 := strconv.Atoi(to)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad week range %q", s)
		}
		var out []int
		for w := a; w <= b; w++ {
			out = append(out, w)
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad week %q", part)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no weeks in %q", s)
	}
	return out, nil
}
