package experiments

import "testing"

// TestAllExperimentsRun executes every registered experiment at small scale
// and validates the produced tables are well-formed. This is the integration
// gate for cmd/seagull-experiments.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Options{Scale: ScaleSmall, Seed: 3})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if tb.Caption == "" {
					t.Errorf("%s: table without caption", e.ID)
				}
				if len(tb.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tb.Caption)
				}
				for _, row := range tb.Rows {
					if len(tb.Header) > 0 && len(row) != len(tb.Header) {
						t.Errorf("%s: table %q row width %d != header %d",
							e.ID, tb.Caption, len(row), len(tb.Header))
					}
				}
				if tb.Markdown() == "" || tb.Text() == "" {
					t.Errorf("%s: table %q renders empty", e.ID, tb.Caption)
				}
			}
		})
	}
}
