package obs

import (
	"bytes"
	"strings"
	"testing"
)

// expoDoc exercises every tag form Expo.Struct understands.
type expoDoc struct {
	Things  uint64   `metric:"counter seagull_things_total Things counted."`
	Level   float64  `metric:"gauge seagull_level Current level."`
	Ms      float64  `metric:"counter seagull_seconds_total Time, in seconds." div:"1000"`
	On      bool     `metric:"gauge seagull_on 1 when on."`
	Reason  string   `metric:"gauge seagull_degraded 1 when degraded."`
	Members []string `metric:"gauge seagull_members Member count."`
	Skipped int
	Section *expoSection
	ByKey   map[string]expoElem `label:"k"`
}

type expoSection struct {
	Depth int `metric:"gauge seagull_depth Queue depth."`
}

type expoElem struct {
	N           uint64 `metric:"counter seagull_labeled_total help with \\ and\nnewline"`
	LatencyHist `metric:"histogram seagull_lat_seconds Latency."`
	Nested      *expoSection // labelled elements render only their own tagged fields
}

func renderDoc(t *testing.T, doc any) string {
	t.Helper()
	var buf bytes.Buffer
	e := NewExpo(&buf)
	e.Struct(doc)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestExpoStructFamilies(t *testing.T) {
	out := renderDoc(t, &expoDoc{
		Things: 42, Level: 1.5, Ms: 2500, On: true, Reason: "wal torn",
		Members: []string{"a", "b"}, Skipped: 9, Section: &expoSection{Depth: 3},
	})
	want := "# HELP seagull_things_total Things counted.\n# TYPE seagull_things_total counter\nseagull_things_total 42\n" +
		"# HELP seagull_level Current level.\n# TYPE seagull_level gauge\nseagull_level 1.5\n" +
		"# HELP seagull_seconds_total Time, in seconds.\n# TYPE seagull_seconds_total counter\nseagull_seconds_total 2.5\n" +
		"# HELP seagull_on 1 when on.\n# TYPE seagull_on gauge\nseagull_on 1\n" +
		"# HELP seagull_degraded 1 when degraded.\n# TYPE seagull_degraded gauge\nseagull_degraded 1\n" +
		"# HELP seagull_members Member count.\n# TYPE seagull_members gauge\nseagull_members 2\n" +
		"# HELP seagull_depth Queue depth.\n# TYPE seagull_depth gauge\nseagull_depth 3\n"
	if out != want {
		t.Fatalf("got:\n%s\nwant:\n%s", out, want)
	}
	// A nil section, an empty map and a nil document render nothing.
	if out := renderDoc(t, expoDoc{}); strings.Contains(out, "seagull_depth") || strings.Contains(out, "seagull_labeled") {
		t.Fatalf("absent sections rendered:\n%s", out)
	}
	if out := renderDoc(t, (*expoDoc)(nil)); out != "" {
		t.Fatalf("nil document rendered %q", out)
	}
}

func TestExpoStructLabelledAndEscaping(t *testing.T) {
	// Per-bucket counts: 2 under 0.1ms, 3 under 0.25ms, 1 in the overflow.
	hist := LatencyHist{LatencyMsSum: 250, LatencyMsBounds: latencyBoundsMs}
	hist.LatencyCounts[0], hist.LatencyCounts[1], hist.LatencyCounts[numLatencyBuckets-1] = 2, 3, 1
	out := renderDoc(t, expoDoc{ByKey: map[string]expoElem{
		"x":                           {N: 3, LatencyHist: hist, Nested: &expoSection{Depth: 7}},
		"quote \" slash \\ nl \n end": {N: 1},
	}})
	for _, want := range []string{
		`# HELP seagull_labeled_total help with \\ and\nnewline` + "\n# TYPE seagull_labeled_total counter\n",
		`seagull_labeled_total{k="quote \" slash \\ nl \n end"} 1` + "\n" + `seagull_labeled_total{k="x"} 3` + "\n",
		"# TYPE seagull_lat_seconds histogram\n",
		`seagull_lat_seconds_bucket{k="x",le="0.0001"} 2`,
		`seagull_lat_seconds_bucket{k="x",le="0.00025"} 5`,
		`seagull_lat_seconds_bucket{k="x",le="10"} 5`,
		`seagull_lat_seconds_bucket{k="x",le="+Inf"} 6`,
		`seagull_lat_seconds_sum{k="x"} 0.25`,
		`seagull_lat_seconds_count{k="x"} 6`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "seagull_depth") {
		t.Fatalf("a labelled element's nested section was rendered:\n%s", out)
	}
	if strings.Count(out, "# TYPE seagull_labeled_total") != 1 {
		t.Fatalf("family declared more than once:\n%s", out)
	}
}

func TestNewLoggerValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewLogger(&buf, "text", "info"); err != nil {
		t.Fatalf("text/info: %v", err)
	}
	if _, err := NewLogger(&buf, "json", "debug"); err != nil {
		t.Fatalf("json/debug: %v", err)
	}
	if _, err := NewLogger(&buf, "xml", "info"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Fatal("bad level accepted")
	}
	l, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hidden")
	l.Warn("visible", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "visible") {
		t.Fatalf("level filtering broken: %q", out)
	}
	LoggerOr(nil).Info("discarded") // must not panic
}
