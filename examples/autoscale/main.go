// Auto-scale: the Appendix A scenario — preemptive auto-scale of SQL
// databases.
//
// The program classifies a SQL database population into stable/unstable
// (Definition 10), compares forecasting models on 24h-ahead prediction with
// the standard NRMSE/MASE metrics (Figure 16), and derives preemptive
// scaling recommendations from the winning model's forecasts.
//
//	go run ./examples/autoscale
package main

import (
	"fmt"
	"log"

	"seagull"
)

func main() {
	log.SetFlags(0)

	dbs := seagull.GenerateSQL(seagull.SQLConfig{Databases: 400, Days: 9, Seed: 17})
	stable, total, err := seagull.ClassifySQLFleet(dbs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("classified %d SQL databases: %.2f%% stable (paper: 19.36%%)\n",
		total, 100*float64(stable)/float64(total))

	// Compare persistent forecast with the neural network on a sample
	// (Figure 16). ARIMA is omitted here for speed; see
	// cmd/seagull-experiments -run fig16 for the full comparison.
	sample := dbs[:60]
	evals, err := seagull.CompareAutoscaleModels(
		[]string{seagull.ModelPersistentPrevDay, seagull.ModelFFNN},
		sample, seagull.AutoscaleConfig{Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmodel comparison (24h ahead, one week training):")
	for _, ev := range evals {
		fmt.Printf("  %-22s NRMSE %.3f  MASE %.3f  (%d dbs)\n",
			ev.Model, ev.MeanNRMSE, ev.MeanMASE, ev.Databases)
	}

	// Preemptive recommendations from tomorrow's forecast, persistent
	// forecast being the deployed choice (Section 5.4 / Appendix A.3).
	fmt.Println("\npreemptive scaling recommendations (first 10 databases):")
	counts := map[string]int{}
	for i, db := range dbs {
		m, err := seagull.NewModel(seagull.ModelPersistentPrevDay, 1)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := seagull.PredictDay(m, db.Load)
		if err != nil {
			log.Fatal(err)
		}
		action, err := recommend(pred)
		if err != nil {
			log.Fatal(err)
		}
		counts[action]++
		if i < 10 {
			p95, _ := pred.Quantile(0.95)
			fmt.Printf("  %-14s predicted p95 %5.1f%% → %s\n", db.ID, p95, action)
		}
	}
	fmt.Printf("\nfleet recommendations: %v\n", counts)
	fmt.Println("(Figure 13(b): only ~3.7% of servers ever reach capacity — most can scale down)")
}

// recommend maps a predicted day of load onto a scaling action: scale up
// when the predicted 95th percentile exceeds 80% of capacity, scale down
// when even the peak stays under 25%.
func recommend(pred seagull.Series) (string, error) {
	p95, err := pred.Quantile(0.95)
	if err != nil {
		return "", err
	}
	peak, _ := pred.Max()
	switch {
	case p95 >= 80:
		return "scale-up", nil
	case peak < 25:
		return "scale-down", nil
	default:
		return "hold", nil
	}
}
