package router

import (
	"testing"

	"seagull/internal/admission"
	"seagull/internal/modelpool"
	"seagull/internal/obs"
	"seagull/internal/serving"
	"seagull/internal/stream"
)

// TestFleetTotalsMatchHandWrittenSums pins the fold of the router's
// hand-written summation loop onto the Stats types' Add methods: the totals
// are, field for field, what that loop produced — additive gauges (servers)
// summed, unreachable replicas and absent sections skipped, and nothing
// derived from configuration gauges (WAL δ, the admission limit) or the
// per-replica Recovered outcome.
func TestFleetTotalsMatchHandWrittenSums(t *testing.T) {
	replica := func(k uint64) *serving.Varz {
		return &serving.Varz{
			Pool: modelpool.Stats{Hits: 10 * k, Misses: 3 * k},
			Endpoints: map[string]obs.EndpointStats{
				"POST /v2/predict": {Count: 100 * k, Errors: k, InFlight: 2},
				"POST /v2/ingest":  {Count: 7 * k},
			},
			Ingest:     &stream.Stats{Servers: int(4 * k), Appended: 1000 * k, Duplicates: 5 * k, TooOld: k},
			Drift:      &stream.DriftStats{Sweeps: k, Drifted: 2 * k},
			Refresh:    &stream.RefreshStats{Refreshed: 6 * k, Pending: int(k)},
			Durability: &stream.DurabilityStats{WAL: true, DeltaMS: 100, Commits: 9 * k, CommitRecords: 90 * k, Snapshots: k, Recovered: &stream.RecoveryStats{Servers: 1}},
			Admission:  &admission.Stats{Limit: 64, InFlight: 3},
		}
	}
	sparse := &serving.Varz{Pool: modelpool.Stats{Hits: 1}} // no stream layer attached
	replicas := map[string]ReplicaVarz{
		"shard-a": {Ready: true, Varz: replica(1)},
		"shard-b": {Ready: true, Varz: replica(2)},
		"shard-c": {Ready: true, Varz: sparse},
		"shard-d": {Error: "unreachable"},
	}

	// The loop FleetVarz carried before the fold, verbatim.
	var want FleetTotals
	for _, rep := range replicas {
		if rep.Varz == nil {
			continue
		}
		want.PoolHits += rep.Varz.Pool.Hits
		want.PoolMisses += rep.Varz.Pool.Misses
		for _, ep := range rep.Varz.Endpoints {
			want.Requests += ep.Count
			want.RequestErrors += ep.Errors
		}
		if st := rep.Varz.Ingest; st != nil {
			want.Servers += st.Servers
			want.Appended += st.Appended
			want.Duplicates += st.Duplicates
		}
		if st := rep.Varz.Drift; st != nil {
			want.Drifted += st.Drifted
		}
		if st := rep.Varz.Refresh; st != nil {
			want.Refreshed += st.Refreshed
		}
		if st := rep.Varz.Durability; st != nil {
			want.WALCommits += st.Commits
			want.WALRecords += st.CommitRecords
			want.Snapshots += st.Snapshots
		}
	}
	if got := fleetTotals(replicas); got != want {
		t.Fatalf("fleet totals diverge from the hand-written sums:\n got %+v\nwant %+v", got, want)
	}
	if want.Servers != 12 || want.Appended != 3000 || want.PoolHits != 31 {
		t.Fatalf("reference sums themselves are off: %+v", want)
	}
}
