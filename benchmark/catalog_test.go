package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root is what the driver reads; it must be
// exactly what the catalogue in this package says (regenerate it with
// `go run . -describe > ../BENCHMARK.json`).
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != benchmarkJSON() {
		t.Error("BENCHMARK.json differs from the catalogue; run `go run . -describe > ../BENCHMARK.json`")
	}
}

// The limits the driver refuses a BENCHMARK.json over, applied to the
// catalogue itself.
func TestCatalogueIsWithinTheContract(t *testing.T) {
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	raw := benchmarkJSON()
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range doc.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup, widest := false, 0.0
	for _, m := range doc.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		widest = max(widest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	if endToEndMetrics[0].name != "setup_s" || endToEndMetrics[0].bound < widest {
		t.Error("setup_s must carry the largest bound")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range doc.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", doc.RunSeconds)
	}
	for _, p := range doc.Paths {
		if _, err := os.Stat(filepath.Join("..", p)); err != nil {
			t.Errorf("path %q: %v", p, err)
		}
	}
}

// mdLink matches the target of an inline markdown link: ](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// The repository's TestMarkdownLinks covers the root's *.md files only; this
// is the same rule for this directory's README.
func TestReadmeLinks(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	inFence := false
	for lineNo, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if strings.HasPrefix(target, "/") {
				t.Errorf("README.md:%d: absolute link %q", lineNo+1, m[1])
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("README.md:%d: broken link %q", lineNo+1, m[1])
			}
		}
	}
}

// Every metric and workload the README's catalogue promises exists, and every
// one that exists is in the README.
func TestReadmeNamesTheCatalogue(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, m := range append(append([]metric(nil), endToEndMetrics...), perLayerMetrics...) {
		if !strings.Contains(readme, "`"+m.name+"`") {
			t.Errorf("README.md does not mention metric %s", m.name)
		}
	}
	for _, s := range workloads {
		if !strings.Contains(readme, "**`"+s.name+"`**") {
			t.Errorf("README.md does not describe workload %s", s.name)
		}
	}
}
