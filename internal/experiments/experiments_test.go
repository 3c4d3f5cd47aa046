package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete: %+v", e.ID, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := ByID(e.ID); !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) = %q, %v", e.ID, got.ID, ok)
		}
	}
	if len(All) != 12 {
		t.Errorf("registered %d experiments, want 12", len(All))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id should miss")
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Caption: "cap", Note: "note", Header: []string{"a", "b"}}
	tb.AddRow("x", 1)
	tb.AddRow(2.5, "y")
	md := tb.Markdown()
	for _, want := range []string{"**cap**", "| a | b |", "| x | 1 |", "| 2.50 | y |", "*note*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	r := Result{Claims: []Claim{{Metric: "m", Paper: "1%", Got: 2, Min: 0, Max: 1, Unit: "%"}}}
	claims := r.Render()[0].Markdown()
	if !strings.Contains(claims, "| m | 1% | 2.00% | [0.00, 1.00] | NO |") {
		t.Errorf("claims table:\n%s", claims)
	}
}

func TestPctFormatting(t *testing.T) {
	if pctStr(0.123) != "12.3%" {
		t.Errorf("pctStr = %q", pctStr(0.123))
	}
	c := share("s", 50, 0.5, 100) // 3σ of a 50% share over 100 trials is 15 points
	if c.Paper != "50%" || c.Got != 50 || c.Min != 35 || c.Max != 65 {
		t.Errorf("share = %+v", c)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers <= 0 || o.Seed == 0 {
		t.Errorf("defaults = %+v", o)
	}
	if pick(Options{Scale: ScaleSmall}, 1, 2) != 1 {
		t.Error("pick small")
	}
	if pick(Options{Scale: ScaleFull}, 1, 2) != 2 {
		t.Error("pick full")
	}
}

// TestAllExperimentsRun runs every experiment once at small scale (Seed 2)
// and checks that its tables are well formed and that every claim falls
// inside its band. This is the integration gate for cmd/seagull-experiments.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; slow")
	}
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) { checkClaims(t, e.ID, 2) })
	}
}

// The cheap experiments' claims hold at seeds 1 and 3 too, the other seeds
// CHANGES.md records them at.
func TestFig3SmallScale(t *testing.T)                   { checkClaims(t, "fig3", 1, 3) }
func TestSec53SmallScale(t *testing.T)                  { checkClaims(t, "sec53", 1, 3) }
func TestA1SmallScale(t *testing.T)                     { checkClaims(t, "a1", 1, 3) }
func TestFig12aSmallScale(t *testing.T)                 { checkClaims(t, "fig12a", 1, 3) }
func TestFig13bSmallScale(t *testing.T)                 { checkClaims(t, "fig13b", 1, 3) }
func TestAblationBoundShowsAsymmetryValue(t *testing.T) { checkClaims(t, "ablation-bound", 1, 3) }
func TestAblationPFVariants(t *testing.T)               { checkClaims(t, "ablation-pf-variants", 1, 3) }

// checkClaims runs experiment id at small scale at each seed, checks that
// its tables are well formed and that every claim falls inside its band.
func checkClaims(t *testing.T, id string, seeds ...int64) {
	t.Helper()
	e, _ := ByID(id)
	for _, seed := range seeds {
		res, err := e.Run(Options{Scale: ScaleSmall, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tables := res.Render()
		if len(tables) == 0 {
			t.Fatalf("seed %d: no tables", seed)
		}
		for _, tb := range tables {
			if tb.Caption == "" || len(tb.Rows) == 0 {
				t.Errorf("table %q: caption or rows missing", tb.Caption)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Errorf("table %q: row width %d != header %d", tb.Caption, len(row), len(tb.Header))
				}
			}
		}
		for _, c := range res.Claims {
			if c.Metric == "" || c.Paper == "" || !(c.Min <= c.Max) || math.IsNaN(c.Got) {
				t.Errorf("malformed claim %+v", c)
			} else if !c.Holds() {
				t.Errorf("seed %d, %s: ours %.2f%s outside [%.2f, %.2f] (paper %s)",
					seed, c.Metric, c.Got, c.Unit, c.Min, c.Max, c.Paper)
			}
		}
	}
}

// TestClaimsIndependentOfWorkers checks the package's equivalence promise:
// a partitioned run reproduces the single-threaded claims bit for bit and
// every table cell.
func TestClaimsIndependentOfWorkers(t *testing.T) {
	for _, id := range []string{"fig3", "fig12a", "sec53", "fig13b", "a1", "ablation-bound",
		"ablation-threshold", "ablation-history", "ablation-pf-variants"} {
		e, _ := ByID(id)
		one, err1 := e.Run(Options{Scale: ScaleSmall, Seed: 2, Workers: 1})
		four, err4 := e.Run(Options{Scale: ScaleSmall, Seed: 2, Workers: 4})
		if err1 != nil || err4 != nil {
			t.Fatalf("%s: %v, %v", id, err1, err4)
		}
		for i, c := range one.Claims {
			if math.Float64bits(c.Got) != math.Float64bits(four.Claims[i].Got) {
				t.Errorf("%s: %s = %v at 1 worker, %v at 4", id, c.Metric, c.Got, four.Claims[i].Got)
			}
		}
		if !reflect.DeepEqual(one.Render(), four.Render()) {
			t.Errorf("%s: tables differ between 1 and 4 workers", id)
		}
	}
}
