package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"seagull/internal/jsonbody"
	"seagull/internal/serving"
)

// This file holds the traffic-bearing routes: predict routed by owner,
// batch/ingest split across shards and merged, stored predictions fanned out
// and unioned, and the stateless round-robin forwards.

// handlePredict routes one predict to the owner of its server ID. A request
// without a server ID carries its own history and is stateless — any replica
// serves it identically, so it round-robins with failover. Only the routing
// fields are read, in the one scan every traffic route makes; the bytes the
// client sent are what the replica receives.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	route, err := scanBody(body, predictRoute)
	if err != nil {
		rt.badBody(w, err)
		return
	}
	if route.serverID == "" {
		if route.liveHistory {
			writeError(w, http.StatusBadRequest, serving.CodeBadRequest,
				"live_history requires server_id: the live window lives on the owning replica")
			return
		}
		rt.proxy(w, r, http.MethodPost, "/v2/predict", body)
		return
	}
	name, client := rt.ownerClient(route.serverID)
	if err := rt.relay(w, r, name, client, http.MethodPost, "/v2/predict", body); err != nil {
		writeUpstream(w, name, err)
	}
}

// handleBatch splits a batch by item owner, sends each owner its items'
// bytes as received, and merges per-item results back in request order. A
// replica that refuses its sub-batch outright (a 4xx other than 429 — say,
// an ill-typed item) answers the whole request, as one replica would have;
// an unavailable replica fails only its own items.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	route, err := scanBody(body, batchRoute)
	if err != nil {
		rt.badBody(w, err)
		return
	}
	ids := route.servers.ids
	switch {
	case len(ids) == 0:
		writeError(w, http.StatusBadRequest, serving.CodeBadRequest, "batch must contain at least one server")
		return
	case len(ids) > serving.MaxBatch:
		// Split across owners, every sub-batch could pass a replica's limit.
		writeError(w, http.StatusRequestEntityTooLarge, serving.CodeTooLarge,
			fmt.Sprintf("batch of %d servers exceeds the limit of %d", len(ids), serving.MaxBatch))
		return
	}
	if missingID(w, "servers", ids) {
		return
	}
	smap, clients := rt.view()
	parts := smap.Split(ids)
	owners := slices.DeleteFunc(smap.Replicas(), func(name string) bool { return parts[name] == nil })
	ctx := upstreamContext(w, r)

	replies := scatter(owners, clients, rt.observeForward,
		func(name string, c *serving.Client) (serving.BatchResponse, error) {
			var out serving.BatchResponse
			err := c.Do(ctx, http.MethodPost, "/v2/predict/batch", route.subBody(body, parts[name], nil), &out)
			return out, err
		})
	for _, rep := range replies {
		if definitive(rep.err) {
			writeUpstream(w, rep.name, rep.err)
			return
		}
	}
	writeJSON(w, http.StatusOK, mergeBatch(ids, parts, replies))
}

// missingID answers 400 and reports true when an item of the named array
// has no server_id to route it by.
func missingID(w http.ResponseWriter, name string, ids []string) bool {
	i := slices.Index(ids, "")
	if i >= 0 {
		writeError(w, http.StatusBadRequest, serving.CodeBadRequest,
			name+"["+strconv.Itoa(i)+"]: server_id is required")
	}
	return i >= 0
}

// mergeBatch folds the shards' replies (in shard-map order) into one response
// whose results follow the request order of ids. A replica failure fails only
// the items it owned, each naming the shard; a reply shorter than the
// sub-batch sent fails the missing items the same way. Model and version come
// from the first successful shard, and the counts are taken from the merged
// results, so succeeded + failed == len(ids) whatever a replica claims.
func mergeBatch(ids []string, parts map[string][]int, replies []reply[serving.BatchResponse]) serving.BatchResponse {
	out := serving.BatchResponse{Results: make([]serving.BatchItemResult, len(ids))}
	for _, rep := range replies {
		idxs := parts[rep.name]
		results := rep.val.Results
		// missing is what an item this shard returned no result for fails with.
		var missing *serving.ErrorBody
		switch {
		case rep.err != nil:
			results, missing = nil, upstreamErrorBody(rep.name, rep.err)
		case len(results) < len(idxs):
			missing = &serving.ErrorBody{
				Code:    serving.CodeInternal,
				Message: fmt.Sprintf("replica %s answered %d results for %d items", rep.name, len(results), len(idxs)),
			}
		}
		if rep.err == nil && out.Model == "" {
			out.Model, out.Version = rep.val.Model, rep.val.Version
		}
		for j, i := range idxs {
			if j < len(results) {
				out.Results[i] = results[j]
			} else {
				out.Results[i] = serving.BatchItemResult{ServerID: ids[i], LLStart: -1, Error: missing}
			}
			if out.Results[i].Error != nil {
				out.Failed++
			} else {
				out.Succeeded++
			}
		}
	}
	return out
}

// handleIngest splits the batch's series and points by owner, sends each
// owner its items' bytes as received, broadcasts the optional sweep clause
// to every replica (each sweeps its own ring), and sums the tallies.
// Appends are idempotent on every replica, so a client that sees an error
// from a partially-applied fan-out simply re-sends the whole batch.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	route, err := scanBody(body, ingestRoute)
	if err != nil {
		rt.badBody(w, err)
		return
	}
	if missingID(w, "servers", route.servers.ids) || missingID(w, "points", route.points.ids) {
		return
	}
	smap, clients := rt.view()
	series, points := smap.Split(route.servers.ids), smap.Split(route.points.ids)
	// The sweep must cover every shard, including those this batch carried
	// no points for.
	owners := slices.DeleteFunc(smap.Replicas(), func(name string) bool {
		return !route.sweep && series[name] == nil && points[name] == nil
	})
	if len(owners) == 0 {
		writeError(w, http.StatusBadRequest, serving.CodeBadRequest, "ingest batch must contain at least one point")
		return
	}

	ctx := upstreamContext(w, r)
	replies := scatter(owners, clients, rt.observeForward,
		func(name string, c *serving.Client) (serving.IngestResponse, error) {
			var out serving.IngestResponse
			err := c.Do(ctx, http.MethodPost, "/v2/ingest", route.subBody(body, series[name], points[name]), &out)
			return out, err
		})
	var merged serving.IngestResponse
	for _, rep := range replies {
		if rep.err != nil {
			// Idempotent appends make the whole batch safe to re-send; failing
			// loudly beats acknowledging points a dead replica never saw.
			writeUpstream(w, rep.name, rep.err)
			return
		}
		resp := rep.val
		merged.Accepted += resp.Accepted
		merged.Duplicates += resp.Duplicates
		merged.TooOld += resp.TooOld
		merged.TooNew += resp.TooNew
		merged.BadValues += resp.BadValues
		merged.Skipped += resp.Skipped
		if resp.Sweep != nil {
			if merged.Sweep == nil {
				merged.Sweep = &serving.SweepResult{
					Region: resp.Sweep.Region, Week: resp.Sweep.Week,
				}
			}
			merged.Sweep.Checked += resp.Sweep.Checked
			merged.Sweep.Drifted += resp.Sweep.Drifted
			merged.Sweep.Skipped += resp.Sweep.Skipped
			merged.Sweep.Queued += resp.Sweep.Queued
			merged.Sweep.Dropped += resp.Sweep.Dropped
			merged.Sweep.Servers = append(merged.Sweep.Servers, resp.Sweep.Servers...)
		}
	}
	if merged.Sweep != nil {
		sort.Strings(merged.Sweep.Servers)
	}
	writeJSON(w, http.StatusOK, merged)
}

// handlePredictions fans the stored-prediction query out to every replica
// and merges by server ID: replicas share a region's document store but a
// refresher republishes only its own shard, so the union is the fleet view.
func (rt *Router) handlePredictions(w http.ResponseWriter, r *http.Request) {
	region := r.PathValue("region")
	week, err := strconv.Atoi(r.PathValue("week"))
	if err != nil || region == "" {
		writeError(w, http.StatusBadRequest, serving.CodeBadRequest, "path must be /v2/predictions/{region}/{week}")
		return
	}
	smap, clients := rt.view()
	ctx := upstreamContext(w, r)
	replies := scatter(smap.Replicas(), clients, rt.observeForward,
		func(_ string, c *serving.Client) (serving.PredictionsResponse, error) {
			return c.Predictions(ctx, region, week)
		})
	merged := serving.PredictionsResponse{Region: region, Week: week}
	seen := map[string]bool{}
	var failed *reply[serving.PredictionsResponse]
	for i, rep := range replies {
		if rep.err != nil {
			if failed == nil {
				failed = &replies[i]
			}
			continue
		}
		for _, doc := range rep.val.Predictions {
			if doc != nil && !seen[doc.ServerID] {
				seen[doc.ServerID] = true
				merged.Predictions = append(merged.Predictions, doc)
			}
		}
	}
	if failed != nil && len(merged.Predictions) == 0 {
		writeUpstream(w, failed.name, failed.err)
		return
	}
	sort.Slice(merged.Predictions, func(i, j int) bool {
		return merged.Predictions[i].ServerID < merged.Predictions[j].ServerID
	})
	writeJSON(w, http.StatusOK, merged)
}

// relay sends one request to a replica with body as it is (nil sends none)
// and, on success, copies the replica's JSON reply to w byte for byte.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, name string, client *serving.Client,
	method, path string, body json.RawMessage) error {
	var out json.RawMessage
	err := client.Do(upstreamContext(w, r), method, path, body, &out)
	rt.observeForward(name, err)
	if err == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out)
	}
	return err
}

// proxy forwards one stateless request (body nil sends none) round-robin
// and relays the reply, failing over to the next replica on a retryable
// error.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, method, path string, body json.RawMessage) {
	smap, _ := rt.view()
	n := smap.N()
	skip := map[string]bool{}
	var lastName string
	var lastErr error
	for attempt := 0; attempt < n; attempt++ {
		name, client := rt.nextClient(skip)
		if client == nil {
			break
		}
		err := rt.relay(w, r, name, client, method, path, body)
		if err == nil {
			return
		}
		lastName, lastErr = name, err
		if definitive(err) {
			// No point failing over: every replica would agree.
			break
		}
		skip[name] = true
	}
	writeUpstream(w, lastName, lastErr)
}

// forward builds a handler that relays a stateless request round-robin; a
// POST relays its (size-checked, well-formed) JSON body verbatim.
func (rt *Router) forward(method, path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if method == http.MethodPost {
			var ok bool
			if body, ok = rt.readBody(w, r); !ok {
				return
			}
			if !jsonbody.Valid(body) {
				writeError(w, http.StatusBadRequest, serving.CodeBadRequest, "malformed JSON: not exactly one JSON value")
				return
			}
		}
		rt.proxy(w, r, method, path, body)
	}
}
