package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is one rendered experiment artifact: a header row plus data rows,
// with a caption tying it to the paper figure it reproduces.
type Table struct {
	Caption string
	Note    string // methodology or substitution notes
	Header  []string
	Rows    [][]string
}

// AddRow appends a data row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Caption)
	}
	if len(t.Header) > 0 {
		b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	}
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Note)
	}
	return b.String()
}

// Claim is one comparison with the paper: the metric, the paper's figure
// as printed, our figure and the band [Min, Max] ours must fall in. Where a
// claim is made, a comment says why its band is that wide. A relation such
// as "no riskier than" is a claim on a difference.
type Claim struct {
	Metric   string
	Paper    string
	Got      float64
	Min, Max float64
	Unit     string // "%" (a share), "pp" (a difference of shares) or "" (a ratio)
}

// Holds reports whether our figure falls inside the claim's band.
func (c Claim) Holds() bool { return c.Got >= c.Min && c.Got <= c.Max }

// Result is one experiment run: its claims, and the tables (sweeps,
// histograms, per-size counts) that the claims do not state.
type Result struct {
	Claims []Claim
	Note   string // the run behind the claims: sample sizes, substitutions
	Tables []Table
}

// Render returns every table to print: the claims as one "paper vs ours"
// table, then the rest.
func (r Result) Render() []Table {
	if len(r.Claims) == 0 {
		return r.Tables
	}
	t := Table{Caption: "paper vs ours", Note: r.Note,
		Header: []string{"metric", "paper", "ours", "band", "holds"}}
	for _, c := range r.Claims {
		holds := "yes"
		if !c.Holds() {
			holds = "NO"
		}
		t.AddRow(c.Metric, c.Paper, fmt.Sprintf("%.2f%s", c.Got, c.Unit),
			fmt.Sprintf("[%.2f, %.2f]", c.Min, c.Max), holds)
	}
	return append([]Table{t}, r.Tables...)
}

// noise is three binomial standard errors, in percentage points, of a share
// near p (a fraction) counted over n trials.
func noise(p float64, n int) float64 {
	return 300 * math.Sqrt(p*(1-p)/float64(max(n, 1)))
}

// share claims that a measured share got (a fraction) agrees with the
// paper's paperPct (in percent) up to the sampling noise of the run: the
// band is paperPct ± noise over the n trials (servers, server-days or
// decisions) the share counts, clipped to [0, 100]. It is used where the
// substrate is generated to the paper's population, so only sampling should
// separate the two figures: a systematic gap shows at any n, while a
// small-scale run is not failed for its sample size alone.
func share(metric string, paperPct, got float64, n int) Claim {
	d := noise(paperPct/100, n)
	return Claim{Metric: metric, Paper: strconv.FormatFloat(paperPct, 'f', -1, 64) + "%",
		Got: 100 * got, Min: max(paperPct-d, 0), Max: min(paperPct+d, 100), Unit: "%"}
}

// pctStr formats a fraction as a percentage.
func pctStr(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
