package validate

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"seagull/internal/extract"
	"seagull/internal/lake"
	"seagull/internal/timeseries"
)

func rowsCSV(t *testing.T, rows []lake.Row) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := lake.WriteRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func cleanRows() []lake.Row {
	return []lake.Row{
		{ServerID: "a", TimestampMin: 100, CPUPct: 10, BackupStartMin: 0, BackupEndMin: 10},
		{ServerID: "a", TimestampMin: 105, CPUPct: 20, BackupStartMin: 0, BackupEndMin: 10},
		{ServerID: "b", TimestampMin: 100, CPUPct: 30, BackupStartMin: 0, BackupEndMin: 10},
	}
}

func TestValidateCleanRows(t *testing.T) {
	rep, err := ValidateRows(rowsCSV(t, cleanRows()), DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid || len(rep.Anomalies) != 0 {
		t.Errorf("clean data flagged: %+v", rep.Anomalies)
	}
	if rep.Rows != 3 || rep.Servers != 2 {
		t.Errorf("rows=%d servers=%d", rep.Rows, rep.Servers)
	}
}

func TestValidateBoundAnomaly(t *testing.T) {
	rows := cleanRows()
	rows[1].CPUPct = 150
	rep, err := ValidateRows(rowsCSV(t, rows), DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid {
		t.Error("bound anomaly not flagged")
	}
	if rep.Anomalies[0].Kind != KindBound {
		t.Errorf("kind = %v", rep.Anomalies[0].Kind)
	}
	// The missing sentinel is allowed.
	rows = cleanRows()
	rows[1].CPUPct = -1
	rep, _ = ValidateRows(rowsCSV(t, rows), DefaultSchema())
	if !rep.Valid {
		t.Errorf("missing sentinel flagged: %+v", rep.Anomalies)
	}
}

func TestValidateDuplicateAndOrder(t *testing.T) {
	rows := cleanRows()
	rows[1].TimestampMin = 100 // duplicate of rows[0]
	rep, _ := ValidateRows(rowsCSV(t, rows), DefaultSchema())
	if rep.Valid || rep.Anomalies[0].Kind != KindDuplicate {
		t.Errorf("duplicate not flagged: %+v", rep.Anomalies)
	}

	rows = cleanRows()
	rows[1].TimestampMin = 50 // regression
	rep, _ = ValidateRows(rowsCSV(t, rows), DefaultSchema())
	if rep.Valid || rep.Anomalies[0].Kind != KindOrder {
		t.Errorf("order anomaly not flagged: %+v", rep.Anomalies)
	}
}

func TestValidateInterleavedServerBlocks(t *testing.T) {
	rows := []lake.Row{
		{ServerID: "a", TimestampMin: 100, CPUPct: 1},
		{ServerID: "b", TimestampMin: 100, CPUPct: 1},
		{ServerID: "a", TimestampMin: 105, CPUPct: 1}, // a reappears
	}
	rep, _ := ValidateRows(rowsCSV(t, rows), DefaultSchema())
	if rep.Valid {
		t.Error("interleaved blocks not flagged")
	}
	found := false
	for _, a := range rep.Anomalies {
		if a.Kind == KindOrder && strings.Contains(a.Detail, "interleaved") {
			found = true
		}
	}
	if !found {
		t.Errorf("anomalies = %+v", rep.Anomalies)
	}
}

func TestValidateSchemaAnomalies(t *testing.T) {
	// Bad header.
	rep, err := ValidateRows(strings.NewReader("bogus\n"), DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid {
		t.Error("bad header not flagged")
	}
	// Malformed row mid-file.
	data := lake.Header + "\na,100,1.0,0,0\nnot,a,row\n"
	rep, err = ValidateRows(strings.NewReader(data), DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid {
		t.Error("malformed row not flagged")
	}
	// Empty file body.
	rep, _ = ValidateRows(strings.NewReader(lake.Header+"\n"), DefaultSchema())
	if rep.Valid || rep.Anomalies[0].Kind != KindEmpty {
		t.Errorf("empty body: %+v", rep.Anomalies)
	}
	// Empty server id.
	rows := cleanRows()
	rows[0].ServerID = ""
	rep, _ = ValidateRows(rowsCSV(t, rows), DefaultSchema())
	if rep.Valid {
		t.Error("empty server id not flagged")
	}
}

func mkLoad(id string, n int, f func(i int) float64) *extract.ServerLoad {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = f(i)
	}
	return &extract.ServerLoad{
		ServerID: id,
		Load: timeseries.New(
			time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC), 5*time.Minute, vals),
	}
}

func TestValidateLoadsClean(t *testing.T) {
	loads := []*extract.ServerLoad{
		mkLoad("a", 2016, func(int) float64 { return 30 }),
	}
	rep := ValidateLoads(loads, DefaultSchema(), 2016)
	if !rep.Valid || len(rep.Anomalies) != 0 {
		t.Errorf("clean loads flagged: %+v", rep.Anomalies)
	}
}

func TestValidateLoadsGap(t *testing.T) {
	loads := []*extract.ServerLoad{
		mkLoad("a", 100, func(i int) float64 {
			if i < 30 {
				return timeseries.Missing
			}
			return 10
		}),
	}
	rep := ValidateLoads(loads, DefaultSchema(), 0)
	if rep.Valid || rep.Anomalies[0].Kind != KindGap {
		t.Errorf("gap not flagged: %+v", rep.Anomalies)
	}
}

func TestValidateLoadsBound(t *testing.T) {
	loads := []*extract.ServerLoad{
		mkLoad("a", 10, func(i int) float64 { return 200 }),
	}
	rep := ValidateLoads(loads, DefaultSchema(), 0)
	if rep.Valid || rep.Anomalies[0].Kind != KindBound {
		t.Errorf("bound not flagged: %+v", rep.Anomalies)
	}
}

func TestValidateLoadsEmptyAndCoverage(t *testing.T) {
	loads := []*extract.ServerLoad{
		{ServerID: "empty"},
		mkLoad("partial", 1000, func(int) float64 { return 10 }),
	}
	rep := ValidateLoads(loads, DefaultSchema(), 2016)
	if rep.Valid {
		t.Error("empty server should invalidate")
	}
	kinds := map[AnomalyKind]bool{}
	for _, a := range rep.Anomalies {
		kinds[a.Kind] = true
	}
	if !kinds[KindEmpty] || !kinds[KindCoverage] {
		t.Errorf("kinds = %+v", kinds)
	}
	// Coverage alone keeps the batch valid.
	rep = ValidateLoads(loads[1:], DefaultSchema(), 2016)
	if !rep.Valid {
		t.Errorf("coverage-only should stay valid: %+v", rep.Anomalies)
	}
}

func TestAnomalyString(t *testing.T) {
	a := Anomaly{Kind: KindBound, ServerID: "s", Detail: "d"}
	if a.String() != "[bound] s: d" {
		t.Errorf("String = %q", a.String())
	}
	a = Anomaly{Kind: KindEmpty, Detail: "d"}
	if a.String() != "[empty] d" {
		t.Errorf("String = %q", a.String())
	}
}

func TestAnomalyCap(t *testing.T) {
	rows := make([]lake.Row, 500)
	for i := range rows {
		rows[i] = lake.Row{ServerID: "a", TimestampMin: int64(100 + i*5), CPUPct: 999}
	}
	rep, _ := ValidateRows(rowsCSV(t, rows), DefaultSchema())
	if len(rep.Anomalies) > maxAnomalies {
		t.Errorf("anomalies = %d, cap is %d", len(rep.Anomalies), maxAnomalies)
	}
	if rep.Valid {
		t.Error("capped report must still be invalid")
	}
}

// NaN parses as a float but is no load: it is a bound anomaly, not a silent
// missing point (the schema's missing sentinel is -1).
func TestValidateNaNCPUIsBoundAnomaly(t *testing.T) {
	data := lake.Header + "\na,100,10.000,0,10\na,105,NaN,0,10\n"
	rep, err := ValidateRows(strings.NewReader(data), DefaultSchema())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid || len(rep.Anomalies) != 1 || rep.Anomalies[0].Kind != KindBound || rep.Anomalies[0].ServerID != "a" {
		t.Errorf("NaN cpu: valid=%v anomalies=%+v, want one bound anomaly on a", rep.Valid, rep.Anomalies)
	}
}
