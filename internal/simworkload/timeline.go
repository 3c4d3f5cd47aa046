package simworkload

import (
	"bytes"
	"fmt"
	"strconv"
)

// Row is one timeline sample: the simulated time plus cumulative counters of
// every deterministic subsystem. Wall-clock-dependent quantities (request
// latencies, shed counts, brownout degradations) are deliberately excluded —
// they live in the SLO report — so the same scenario and seed render a
// bit-identical CSV on every run, which the determinism tests pin.
type Row struct {
	SimHours float64 `json:"sim_hours"`

	// Ingest counters (stream.Stats).
	Appended   uint64 `json:"appended"`
	Duplicates uint64 `json:"duplicates"`
	TooOld     uint64 `json:"too_old"`
	TooNew     uint64 `json:"too_new"`

	// Drift loop counters.
	Sweeps     uint64 `json:"sweeps"`
	Drifted    uint64 `json:"drifted"`
	Queued     uint64 `json:"queued"`
	Refreshed  uint64 `json:"refreshed"`
	RefSkipped uint64 `json:"ref_skipped"`
	RefDropped uint64 `json:"ref_dropped"`
	// QueueDepth is the refresh queue depth observed right after the most
	// recent sweep, before its drain.
	QueueDepth int `json:"queue_depth"`

	// Durability counters.
	WALCommits uint64 `json:"wal_commits"`
	WALRecords uint64 `json:"wal_records"`
	Snapshots  uint64 `json:"snapshots"`

	// PredictsIssued counts predict requests dispatched (not their
	// outcomes, which are wall-dependent).
	PredictsIssued uint64 `json:"predicts_issued"`

	// Stream-side trace counters (simulated-clock tracer). Span counts are
	// deterministic — sweeps and refresh drains run synchronously at slot
	// boundaries — so they belong in the CSV; span durations are zero on the
	// frozen simulated clock and are deliberately not sampled.
	SweepSpans    uint64 `json:"sweep_spans"`
	RefreshTrains uint64 `json:"refresh_trains"`
}

// timelineHeader lists the CSV columns, in Row field order.
const timelineHeader = "sim_hours,appended,duplicates,too_old,too_new," +
	"sweeps,drifted,queued,refreshed,ref_skipped,ref_dropped,queue_depth," +
	"wal_commits,wal_records,snapshots,predicts_issued," +
	"sweep_spans,refresh_trains"

// TimelineCSV renders rows as a CSV document. Float formatting uses the
// shortest round-trip representation, so the bytes are a pure function of the
// row values.
func TimelineCSV(rows []Row) []byte {
	var b bytes.Buffer
	b.WriteString(timelineHeader)
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strconv.FormatFloat(r.SimHours, 'g', -1, 64))
		for _, v := range []uint64{
			r.Appended, r.Duplicates, r.TooOld, r.TooNew,
			r.Sweeps, r.Drifted, r.Queued, r.Refreshed, r.RefSkipped, r.RefDropped,
		} {
			fmt.Fprintf(&b, ",%d", v)
		}
		fmt.Fprintf(&b, ",%d", r.QueueDepth)
		for _, v := range []uint64{
			r.WALCommits, r.WALRecords, r.Snapshots, r.PredictsIssued,
			r.SweepSpans, r.RefreshTrains,
		} {
			fmt.Fprintf(&b, ",%d", v)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}
