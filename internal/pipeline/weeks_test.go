package pipeline

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"seagull/internal/cosmos"
	"seagull/internal/extract"
	"seagull/internal/insights"
	"seagull/internal/registry"
	"seagull/internal/timeseries"
)

// sameRun reports where got, a run that may have reused kept weeks, differs
// from want, the same run parsing every week.
func sameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Rows != want.Rows || got.Servers != want.Servers || got.Rows == 0 ||
		got.Predicted != want.Predicted || got.Evaluated != want.Evaluated {
		t.Errorf("%s: rows/servers/predicted/evaluated %d/%d/%d/%d, want %d/%d/%d/%d", label,
			got.Rows, got.Servers, got.Predicted, got.Evaluated, want.Rows, want.Servers, want.Predicted, want.Evaluated)
	}
	if !reflect.DeepEqual(got.Validation, want.Validation) {
		t.Errorf("%s: validation differs:\n%+v\n%+v", label, got.Validation, want.Validation)
	}
	if !reflect.DeepEqual(got.Classes, want.Classes) {
		t.Errorf("%s: classes differ: %+v vs %+v", label, got.Classes, want.Classes)
	}
	// The mean bucket ratio is summed in map order, so only its last bits
	// may differ.
	a, b := got.Summary, want.Summary
	if a.Servers != b.Servers || a.WindowsCorrect != b.WindowsCorrect || a.WindowsAccurate != b.WindowsAccurate ||
		a.PredictableCount != b.PredictableCount || math.Abs(a.MeanBucketRatio-b.MeanBucketRatio) > 1e-9 {
		t.Errorf("%s: summary %+v, want %+v", label, a, b)
	}
}

// sameStored reports where two pipelines' stored predictions and
// evaluations in region differ.
func sameStored(t *testing.T, label string, got, want *Pipeline, region string) {
	t.Helper()
	for _, col := range []string{PredictionsCollection, "evaluations"} {
		g, w := storedDocs(t, got, col, region), storedDocs(t, want, col, region)
		if len(w) == 0 || !reflect.DeepEqual(g, w) {
			t.Errorf("%s: stored %s differ (%d vs %d docs)", label, col, len(g), len(w))
		}
	}
}

// fresh returns a pipeline over p's lake with its own documents and
// registry, and nothing kept.
func fresh(t *testing.T, p *Pipeline) *Pipeline {
	t.Helper()
	db, err := cosmos.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return New(p.Store, db, registry.New(nil), insights.New(nil))
}

// mirrorLoads rewrites each CPU digit d as 9-d: the extract keeps its size
// while its loads turn upside down (a missing -1.000 stays negative).
func mirrorLoads(lines []string) []string {
	for i := 1; i < len(lines); i++ {
		parts := strings.Split(lines[i], ",")
		if len(parts) != 5 {
			continue
		}
		b := []byte(parts[2])
		for j, c := range b {
			if c >= '0' && c <= '9' {
				b[j] = '9' - (c - '0')
			}
		}
		parts[2] = string(b)
		lines[i] = strings.Join(parts, ",")
	}
	return lines
}

// A pipeline that keeps weeks across RunWeek(0..4) gives, week by week, what
// a fresh pipeline over the same documents gives: rows, servers, anomalies
// in order, classes, summary and the stored prediction and evaluation bytes.
func TestKeptWeeksMatchFreshRuns(t *testing.T) {
	for _, workers := range []int{1, 8} {
		warm, _ := fixtureWeeks(t, 24, 5)
		editExtract(t, warm, "testreg", 3, func(lines []string) []string {
			parts := strings.Split(lines[7], ",")
			parts[2] = "250.000"
			lines[7] = strings.Join(parts, ",")
			return lines
		})
		coldDB, err := cosmos.Open("")
		if err != nil {
			t.Fatal(err)
		}
		coldReg := registry.New(nil)
		var reused []int
		for week := 0; week <= 4; week++ {
			cfg := Config{Region: "testreg", Week: week, Workers: workers}
			got, err := warm.RunWeek(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold := New(warm.Store, coldDB, coldReg, insights.New(nil))
			want, err := cold.RunWeek(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.ReusedWeeks != 0 {
				t.Errorf("workers %d week %d: a fresh pipeline reused %d weeks", workers, week, want.ReusedWeeks)
			}
			reused = append(reused, got.ReusedWeeks)
			label := fmt.Sprintf("workers %d week %d", workers, week)
			sameRun(t, label, got, want)
			sameStored(t, label, warm, cold, "testreg")
		}
		// Week 0's run keeps nothing, week 1's keeps weeks 0 and 1, and from
		// then on every earlier week is reused.
		if want := []int{0, 0, 2, 3, 3}; !reflect.DeepEqual(reused, want) {
			t.Errorf("workers %d: reused weeks %v, want %v", workers, reused, want)
		}
	}
}

// warmUp runs week three times: the first run keeps nothing, the second
// keeps its weeks and the third reuses every earlier one.
func warmUp(t *testing.T, p *Pipeline, week int) *Result {
	t.Helper()
	var res *Result
	for i := 0; i < 3; i++ {
		var err error
		if res, err = p.RunWeek(context.Background(), Config{Region: "testreg", Week: week}); err != nil {
			t.Fatal(err)
		}
	}
	if res.ReusedWeeks != week {
		t.Fatalf("warm-up reused %d weeks, want %d", res.ReusedWeeks, week)
	}
	return res
}

// An earlier extract rewritten to other bytes of the same size is parsed
// again, not served from what was kept.
func TestRewrittenWeekMissesKeptWeek(t *testing.T) {
	p, _ := fixture(t, 24)
	before := warmUp(t, p, 3)
	path := p.Store.Path(extract.Dataset, "testreg", 2)
	old, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	editExtract(t, p, "testreg", 2, mirrorLoads)
	if now, err := os.Stat(path); err != nil || now.Size() != old.Size() {
		t.Fatalf("the rewrite changed the size: %v", err)
	}
	got, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got.ReusedWeeks != 2 {
		t.Errorf("reused %d weeks after week 2 was rewritten, want 2", got.ReusedWeeks)
	}
	if reflect.DeepEqual(got.Classes, before.Classes) {
		t.Error("the rewrite of week 2 did not change the classes; the test shows nothing")
	}
	f := fresh(t, p)
	want, err := f.RunWeek(context.Background(), Config{Region: "testreg", Week: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "rewritten week 2", got, want)
	if g, w := storedPredictions(t, p, "testreg"), storedPredictions(t, f, "testreg"); !reflect.DeepEqual(g, w) {
		t.Error("stored predictions differ from a fresh run's")
	}
	// What the miss parsed is kept in turn.
	if again, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: 3}); err != nil || again.ReusedWeeks != 3 {
		t.Errorf("the next run reused %d weeks (err %v), want 3", again.ReusedWeeks, err)
	}
}

// A deleted earlier week is skipped, as it is on a fresh pipeline, not
// served from what was kept.
func TestDeletedWeekIsNotServed(t *testing.T) {
	p, _ := fixture(t, 24)
	warmUp(t, p, 3)
	if err := os.Remove(p.Store.Path(extract.Dataset, "testreg", 0)); err != nil {
		t.Fatal(err)
	}
	got, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got.ReusedWeeks != 2 {
		t.Errorf("reused %d weeks with week 0 deleted, want 2", got.ReusedWeeks)
	}
	want, err := fresh(t, p).RunWeek(context.Background(), Config{Region: "testreg", Week: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "deleted week 0", got, want)
}

// A region's first run keeps nothing, so its second reuses nothing; other
// regions' runs do not count towards it.
func TestRegionRunOnceKeepsNothing(t *testing.T) {
	p, _ := fixture(t, 12)
	if _, err := p.RunWeek(context.Background(), Config{Region: "ghost", Week: 1}); err == nil {
		t.Fatal("a region without extracts ran")
	}
	for i, want := range []int{0, 0, 3} {
		res, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.ReusedWeeks != want {
			t.Errorf("run %d reused %d weeks, want %d", i+1, res.ReusedWeeks, want)
		}
	}
}

// A run keeps only the weeks it read: week 4's run drops week 0, so the
// week 3 run after it parses week 0 again.
func TestRunKeepsOnlyItsOwnWeeks(t *testing.T) {
	p, _ := fixtureWeeks(t, 12, 5)
	warmUp(t, p, 3)
	for _, c := range []struct{ week, reused int }{{4, 3}, {3, 2}, {3, 3}} {
		res, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: c.week})
		if err != nil {
			t.Fatal(err)
		}
		if res.ReusedWeeks != c.reused {
			t.Errorf("week %d reused %d weeks, want %d", c.week, res.ReusedWeeks, c.reused)
		}
	}
}

// Values the compact form cannot hold — four decimals, -0, a magnitude past
// int32 thousandths — and a NaN in the file come back from a kept week bit
// for bit.
func TestKeptWeekIsBitIdentical(t *testing.T) {
	p, _ := fixture(t, 12)
	editExtract(t, p, "testreg", 2, func(lines []string) []string {
		// The first server's odd values share it with -0; the last server's
		// -0 is its only one.
		odd := map[int]string{10: "12.3456", 11: "-0.000", 12: "NaN", 13: "3000000.000", 14: "0.0005", len(lines) - 2: "-0.000"}
		for i, cpu := range odd {
			parts := strings.Split(lines[i], ",")
			parts[2] = cpu
			lines[i] = strings.Join(parts, ",")
		}
		return lines
	})
	cfg := Config{Region: "testreg", Week: 3}.withDefaults()
	var got map[string]*serverHistory
	for i := 0; i < 3; i++ {
		h, _, reused, err := p.ingest(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = h
		if i == 2 && reused != 3 {
			t.Fatalf("reused %d weeks, want 3", reused)
		}
	}
	want, _, _, err := fresh(t, p).ingest(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d servers, want %d", len(got), len(want))
	}
	negZero := 0
	for id, w := range want {
		g := got[id]
		if g == nil || !g.load.Start.Equal(w.load.Start) || g.load.Interval != w.load.Interval ||
			g.load.Len() != w.load.Len() || g.backupStart != w.backupStart || g.windowPoints != w.windowPoints {
			t.Fatalf("server %s: history %+v, want %+v", id, g, w)
		}
		for i, v := range w.load.Values {
			if math.Float64bits(g.load.Values[i]) != math.Float64bits(v) {
				t.Fatalf("server %s point %d: %v (%#x), want %v (%#x)", id, i,
					g.load.Values[i], math.Float64bits(g.load.Values[i]), v, math.Float64bits(v))
			}
			if math.Float64bits(v) == 1<<63 {
				negZero++
			}
		}
	}
	if negZero != 2 {
		t.Errorf("%d -0 values reached the history, want 2", negZero)
	}
}

// Two goroutines running one region's weeks 3 and 4 over and over, evicting
// each other's kept weeks, each get the sequential result every time.
func TestConcurrentRunsOverKeptWeeks(t *testing.T) {
	p, _ := fixtureWeeks(t, 12, 5)
	for week := 0; week <= 2; week++ {
		if _, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: week}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[int]*Result{}
	for _, week := range []int{3, 4} {
		res, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: week})
		if err != nil {
			t.Fatal(err)
		}
		want[week] = res
	}
	const rounds = 6
	got := map[int][]*Result{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, week := range []int{3, 4} {
		wg.Add(1)
		go func(week int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := p.RunWeek(context.Background(), Config{Region: "testreg", Week: week, Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				got[week] = append(got[week], res)
				mu.Unlock()
			}
		}(week)
	}
	wg.Wait()
	for week, results := range got {
		if len(results) != rounds {
			t.Errorf("week %d: %d runs, want %d", week, len(results), rounds)
		}
		for i, res := range results {
			sameRun(t, fmt.Sprintf("week %d run %d", week, i), res, want[week])
		}
	}
}

// Compacting and expanding any values gives back the same bits: values the
// compact form cannot hold keep the float64 form.
func FuzzCompactWeek(f *testing.F) {
	seed := func(vals ...float64) {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		f.Add(b)
	}
	seed(0, 12.345, 100, 99.999, 0.001)
	seed(timeseries.Missing, 1.5, timeseries.Missing)
	seed(math.Copysign(0, -1))
	seed(math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0xfff0000000000001))
	seed(math.Inf(1), math.Inf(-1))
	seed(2147483.648, -2147483.648, 2147483.647, -2147483.647, 1e300)
	seed(12.3456, 0.0005, 0.1+0.2)
	seed(-1, -0.001, -2147483.647)
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]float64, len(b)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		ws := compactWeek([]*extract.ServerLoad{{Load: timeseries.Series{Values: vals}}})[0]
		if ws.milli != nil && ws.Load.Values != nil {
			t.Fatal("a compact server kept its float64 values too")
		}
		out := ws.appendTo(nil)
		if len(out) != len(vals) {
			t.Fatalf("%d values back, want %d", len(out), len(vals))
		}
		for i, v := range vals {
			if math.Float64bits(out[i]) != math.Float64bits(v) {
				t.Fatalf("value %d: %#x back, want %#x", i, math.Float64bits(out[i]), math.Float64bits(v))
			}
		}
	})
}
