package experiments

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"

	"seagull/internal/extract"
	"seagull/internal/lake"
	"seagull/internal/pipeline"
	"seagull/internal/registry"
	"seagull/internal/simulate"
	"seagull/internal/timeseries"
)

// runFig12a runs the full weekly pipeline for regions of growing size — the
// component breakdown of Figure 12(a) — and states its two size claims with
// counts instead of wall clocks: the registry versions one run writes, and
// the rows and extract bytes each server brings.
func runFig12a(o Options) (Result, error) {
	o = o.withDefaults()
	// Server counts standing in for the paper's input sizes of hundreds of
	// KB to a few GB.
	sizes := pick(o, []int{60, 150}, []int{100, 400, 1000, 2500})

	t := Table{
		Caption: "Figure 12(a) — pipeline input and work per region size (1 week, persistent forecast)",
		Header: []string{"servers", "rows", "extract MB", "rows / server", "KB / server",
			"predicted", "registry versions"},
	}
	rows := make([]timeseries.Series, len(sizes)) // per size, one value per server in the extract
	kb := make([]timeseries.Series, len(sizes))
	versions := make([]int, len(sizes))
	for i, n := range sizes {
		// Every region name has one length, so a server id, which starts
		// with it, adds the same bytes to each row at every size.
		region := fmt.Sprintf("size-%04d", n)
		fleet := simulate.GenerateFleet(simulate.Config{
			Region: region, Servers: n, Weeks: 1, Seed: o.Seed + int64(i)*7,
		})
		p, done, err := lakePipeline(fleet)
		if err != nil {
			return Result{}, err
		}
		res, err := p.RunWeek(context.Background(), pipeline.Config{Region: region, Week: 0, Workers: o.Workers})
		if err == nil {
			rows[i], kb[i], err = perServerSizes(p.Store, region)
		}
		done()
		if err != nil {
			return Result{}, fmt.Errorf("fig12a n=%d: %w", n, err)
		}
		versions[i] = len(p.Registry.History(registry.Target{Scenario: pipeline.Scenario, Region: region}))
		t.AddRow(n, res.Rows, fmt.Sprintf("%.1f", kb[i].Mean()*float64(kb[i].Len())/1024),
			fmt.Sprintf("%.1f", rows[i].Mean()), fmt.Sprintf("%.1f", kb[i].Mean()), res.Predicted, versions[i])
	}
	last := len(sizes) - 1
	// One run deploys one model version whatever the region's size, so the
	// band is the single point 1.
	return Result{
		Claims: []Claim{
			{Metric: "registry versions written per RunWeek, largest region / smallest",
				Paper: "model deployment ≈ constant", Got: ratio(versions[last], versions[0]), Min: 1, Max: 1},
			growth("extract rows per server, largest region / smallest", rows[0], rows[last]),
			growth("extract bytes per server, largest region / smallest", kb[0], kb[last]),
		},
		Note:   fmt.Sprintf("regions of %d and %d servers, PaperMix, one week each", sizes[0], sizes[last]),
		Tables: []Table{t},
	}, nil
}

// perServerSizes reads region's week-0 extract and returns, per server, its
// row count and its rows' size in kilobytes. The extract clusters rows by
// server, and each row starts with its server id.
func perServerSizes(store *lake.Store, region string) (rows, kb timeseries.Series, err error) {
	r, err := store.Reader(extract.Dataset, region, 0)
	if err != nil {
		return rows, kb, err
	}
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Scan() // the header
	var id []byte
	for sc.Scan() {
		line := sc.Bytes()
		cur, _, _ := bytes.Cut(line, []byte{','})
		if rows.Len() == 0 || !bytes.Equal(cur, id) {
			id = append(id[:0], cur...)
			rows.Append(0)
			kb.Append(0)
		}
		rows.Values[rows.Len()-1]++
		kb.Values[kb.Len()-1] += float64(len(line)+1) / 1024
	}
	return rows, kb, sc.Err()
}

// growth claims that a per-server quantity does not change with region
// size, so that the pipeline's input, and the per-row work of every
// component after deployment, grows linearly with the number of servers.
// Ours is the larger region's mean over the smaller's. Both regions draw
// their servers from one population, so only sampling should move the
// ratio off 1: the band is 1 ± three standard errors of it, (σ/μ) ×
// √(1/n₁ + 1/n₂), with μ and σ the mean and standard deviation of both
// samples pooled — the same three-error reading as share.
func growth(metric string, small, large timeseries.Series) Claim {
	pooled := timeseries.Series{Values: append(slices.Clone(small.Values), large.Values...)}
	d := 3 * pooled.Std() / pooled.Mean() * math.Sqrt(1/float64(small.Len())+1/float64(large.Len()))
	return Claim{Metric: metric, Paper: "grow linearly", Got: large.Mean() / small.Mean(),
		Min: 1 - d, Max: 1 + d}
}
