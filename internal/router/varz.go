package router

import (
	"context"
	"net/http"

	"seagull/internal/modelpool"
	"seagull/internal/obs"
	"seagull/internal/serving"
	"seagull/internal/stream"
)

// Fleet-wide observability: /varz aggregates every replica's counters
// document next to the router's own routing counters, and /metrics renders
// the same aggregate in Prometheus exposition format. One scrape of the
// router is one view of the whole fleet.

// RouteVarz is one router route's counters.
type RouteVarz struct {
	Count  uint64 `json:"count" metric:"counter seagull_router_requests_total Requests handled by the router, by route."`
	Errors uint64 `json:"errors" metric:"counter seagull_router_request_errors_total Router requests answered with status >= 400, by route."`
}

// ReplicaVarz is one replica's slice of the fleet document.
type ReplicaVarz struct {
	Ready bool `json:"ready" metric:"gauge seagull_router_replica_up 1 when the replica passes readiness, by replica."`
	// Forwards/Failures count the router's upstream calls to this replica
	// (retries inside the client are one forward).
	Forwards uint64 `json:"forwards" metric:"counter seagull_router_replica_forwards_total Upstream calls forwarded, by replica."`
	Failures uint64 `json:"failures" metric:"counter seagull_router_replica_failures_total Upstream calls that failed, by replica."`
	// Error carries the varz fetch failure when the replica was unreachable
	// (Varz is then nil).
	Error string        `json:"error,omitempty"`
	Varz  *serving.Varz `json:"varz,omitempty"`
}

// FleetTotals sums the load-bearing counters across every reachable
// replica — the numbers a capacity dashboard wants first.
type FleetTotals struct {
	Servers       int    `json:"servers" metric:"gauge seagull_fleet_servers Servers with live telemetry windows, fleet-wide."`
	Appended      uint64 `json:"appended" metric:"counter seagull_fleet_ingest_appended_total Telemetry points appended, fleet-wide."`
	Duplicates    uint64 `json:"duplicates" metric:"counter seagull_fleet_ingest_duplicates_total Duplicate telemetry points dropped, fleet-wide."`
	Requests      uint64 `json:"http_requests" metric:"counter seagull_fleet_http_requests_total Requests handled by the replicas, fleet-wide."`
	RequestErrors uint64 `json:"http_request_errors" metric:"counter seagull_fleet_http_request_errors_total Replica requests answered with status >= 400, fleet-wide."`
	PoolHits      uint64 `json:"pool_hits" metric:"counter seagull_fleet_pool_hits_total Warm-pool hits, fleet-wide."`
	PoolMisses    uint64 `json:"pool_misses" metric:"counter seagull_fleet_pool_misses_total Warm-pool misses, fleet-wide."`
	Drifted       uint64 `json:"drifted" metric:"counter seagull_fleet_drift_drifted_total Stored predictions found drifted, fleet-wide."`
	Refreshed     uint64 `json:"refreshed" metric:"counter seagull_fleet_refresh_refreshed_total Predictions retrained and republished, fleet-wide."`
	WALCommits    uint64 `json:"wal_commits" metric:"counter seagull_fleet_wal_commits_total WAL commit cycles, fleet-wide."`
	WALRecords    uint64 `json:"wal_records" metric:"counter seagull_fleet_wal_records_total Telemetry records committed to WALs, fleet-wide."`
	Snapshots     uint64 `json:"snapshots" metric:"counter seagull_fleet_snapshots_total Incremental snapshots taken, fleet-wide."`
}

// fleetTotals projects the summed replica documents onto the totals a
// dashboard reads; the summing itself belongs to each Stats type's Add.
func fleetTotals(replicas map[string]ReplicaVarz) FleetTotals {
	var (
		pool  modelpool.Stats
		reqs  obs.EndpointStats
		ing   stream.Stats
		drift stream.DriftStats
		ref   stream.RefreshStats
		dur   stream.DurabilityStats
	)
	for _, rep := range replicas {
		v := rep.Varz
		if v == nil {
			continue
		}
		pool.Add(v.Pool)
		for _, ep := range v.Endpoints {
			reqs.Add(ep)
		}
		if v.Ingest != nil {
			ing.Add(*v.Ingest)
		}
		if v.Drift != nil {
			drift.Add(*v.Drift)
		}
		if v.Refresh != nil {
			ref.Add(*v.Refresh)
		}
		if v.Durability != nil {
			dur.Add(*v.Durability)
		}
	}
	return FleetTotals{
		Servers: ing.Servers, Appended: ing.Appended, Duplicates: ing.Duplicates,
		Requests: reqs.Count, RequestErrors: reqs.Errors,
		PoolHits: pool.Hits, PoolMisses: pool.Misses,
		Drifted: drift.Drifted, Refreshed: ref.Refreshed,
		WALCommits: dur.Commits, WALRecords: dur.CommitRecords, Snapshots: dur.Snapshots,
	}
}

// FleetVarz is the router's /varz document.
type FleetVarz struct {
	UptimeSec float64  `json:"uptime_sec" metric:"gauge seagull_router_uptime_seconds Seconds since the router started."`
	Seed      uint64   `json:"seed"`
	Members   []string `json:"members" metric:"gauge seagull_router_replicas Configured replica count."`
	// ReadyReplicas counts members currently passing /readyz; the fleet has
	// full shard coverage only when it equals len(Members).
	ReadyReplicas int                    `json:"ready_replicas" metric:"gauge seagull_router_ready_replicas Replicas currently passing readiness."`
	Routes        map[string]RouteVarz   `json:"routes" label:"route"`
	Fleet         FleetTotals            `json:"fleet"`
	Replicas      map[string]ReplicaVarz `json:"replicas" label:"replica"`
}

// FleetVarz assembles the aggregated fleet document, probing every replica
// concurrently.
func (rt *Router) FleetVarz(ctx context.Context) FleetVarz {
	names := rt.smap.Replicas()
	out := FleetVarz{
		UptimeSec: rt.http.UptimeSec(),
		Seed:      rt.smap.Seed(),
		Members:   names,
		Routes:    map[string]RouteVarz{},
		Replicas:  make(map[string]ReplicaVarz, len(names)),
	}
	for name, ep := range rt.http.Snapshot() {
		out.Routes[name] = RouteVarz{Count: ep.Count, Errors: ep.Errors}
	}

	probes := scatter(names, rt.clients, nil, func(name string, c *serving.Client) (ReplicaVarz, error) {
		rep := ReplicaVarz{Ready: c.Ready(ctx)}
		v, err := c.Varz(ctx)
		if err != nil {
			rep.Error = err.Error()
		} else {
			rep.Varz = &v
		}
		rv := rt.replicas[name]
		rep.Forwards, rep.Failures = rv.forwards.Load(), rv.failures.Load()
		return rep, nil
	})
	for _, p := range probes {
		out.Replicas[p.name] = p.val
		if p.val.Ready {
			out.ReadyReplicas++
		}
	}
	out.Fleet = fleetTotals(out.Replicas)
	return out
}

func (rt *Router) handleVarz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.FleetVarz(r.Context()))
}

// WriteMetrics renders the fleet aggregate in Prometheus exposition format:
// the /varz document's own metric tags, walked by obs.
func (rt *Router) WriteMetrics(ctx context.Context, w http.ResponseWriter) error {
	e := obs.NewExpo(w)
	e.Struct(rt.FleetVarz(ctx))
	return e.Flush()
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ExpoContentType)
	_ = rt.WriteMetrics(r.Context(), w)
}
