package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"seagull/internal/serving"
)

// This file holds the traffic-bearing routes: predict routed by owner,
// batch/ingest split across shards and merged, stored predictions fanned out
// and unioned, and the stateless round-robin forwards.

// handlePredict routes one predict to the owner of its server ID. A request
// without a server ID carries its own history and is stateless — any replica
// serves it identically, so it round-robins with failover. Only the routing
// fields are read, in the one pass that also validates the body; the bytes
// the client sent are what the replica receives.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var route struct {
		ServerID    string `json:"server_id"`
		LiveHistory bool   `json:"live_history"`
	}
	if err := json.Unmarshal(body, &route); err != nil {
		rt.badBody(w, err)
		return
	}
	if route.ServerID == "" {
		if route.LiveHistory {
			writeError(w, http.StatusBadRequest, serving.CodeBadRequest,
				"live_history requires server_id: the live window lives on the owning replica")
			return
		}
		rt.proxy(w, r, http.MethodPost, "/v2/predict", body)
		return
	}
	name, client := rt.ownerClient(route.ServerID)
	if err := rt.relay(w, r, name, client, http.MethodPost, "/v2/predict", body); err != nil {
		writeUpstream(w, name, err)
	}
}

// handleBatch splits a batch by item owner, scatters the sub-batches, and
// merges per-item results back in request order.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req serving.BatchRequest
	if !rt.decode(w, r, &req) {
		return
	}
	if len(req.Servers) == 0 {
		writeError(w, http.StatusBadRequest, serving.CodeBadRequest, "batch must contain at least one server")
		return
	}
	for i := range req.Servers {
		if req.Servers[i].ServerID == "" {
			writeError(w, http.StatusBadRequest, serving.CodeBadRequest,
				"servers["+strconv.Itoa(i)+"]: server_id is required")
			return
		}
	}
	smap, clients := rt.view()
	ids := make([]string, len(req.Servers))
	for i := range req.Servers {
		ids[i] = req.Servers[i].ServerID
	}
	parts := smap.Split(ids)
	owners := slices.DeleteFunc(smap.Replicas(), func(name string) bool { return parts[name] == nil })
	ctx := upstreamContext(w, r)

	replies := scatter(owners, clients, rt.observeForward,
		func(name string, c *serving.Client) (serving.BatchResponse, error) {
			idxs := parts[name]
			sub := serving.BatchRequest{
				Scenario: req.Scenario,
				Region:   req.Region,
				Servers:  make([]serving.BatchItem, len(idxs)),
			}
			for j, i := range idxs {
				sub.Servers[j] = req.Servers[i]
			}
			return c.PredictBatch(ctx, sub)
		})
	writeJSON(w, http.StatusOK, mergeBatch(ids, parts, replies))
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

// handleIngest splits the batch's series and points by owner, broadcasts the
// optional sweep clause to every replica (each sweeps its own ring), scatters
// the sub-batches, and sums the tallies. Appends are idempotent on every
// replica, so a client that sees an error from a partially-applied fan-out
// simply re-sends the whole batch.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req serving.IngestRequest
	if !rt.decode(w, r, &req) {
		return
	}
	smap, clients := rt.view()
	names := smap.Replicas()
	subs := make(map[string]*serving.IngestRequest, len(names))
	sub := func(name string) *serving.IngestRequest {
		s, ok := subs[name]
		if !ok {
			s = &serving.IngestRequest{Sweep: req.Sweep}
			subs[name] = s
		}
		return s
	}
	for i := range req.Servers {
		sr := &req.Servers[i]
		if sr.ServerID == "" {
			writeError(w, http.StatusBadRequest, serving.CodeBadRequest,
				"servers["+strconv.Itoa(i)+"]: server_id is required")
			return
		}
		s := sub(smap.Owner(sr.ServerID))
		s.Servers = append(s.Servers, *sr)
	}
	for i := range req.Points {
		p := &req.Points[i]
		if p.ServerID == "" {
			writeError(w, http.StatusBadRequest, serving.CodeBadRequest,
				"points["+strconv.Itoa(i)+"]: server_id is required")
			return
		}
		s := sub(smap.Owner(p.ServerID))
		s.Points = append(s.Points, *p)
	}
	if req.Sweep != nil {
		// The sweep must cover every shard, including those this batch
		// carried no points for.
		for _, name := range names {
			sub(name)
		}
	}
	if len(subs) == 0 {
		writeError(w, http.StatusBadRequest, serving.CodeBadRequest, "ingest batch must contain at least one point")
		return
	}

	owners := slices.DeleteFunc(names, func(name string) bool { return subs[name] == nil })
	ctx := upstreamContext(w, r)
	replies := scatter(owners, clients, rt.observeForward,
		func(name string, c *serving.Client) (serving.IngestResponse, error) {
			return c.Ingest(ctx, *subs[name])
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
		var api *serving.APIError
		if errors.As(err, &api) && api.Status < 500 && api.Status != http.StatusTooManyRequests {
			// Definitive answer (bad request, not found): no point failing
			// over, every replica would agree.
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
			if !json.Valid(body) {
				writeError(w, http.StatusBadRequest, serving.CodeBadRequest, "malformed JSON: not exactly one JSON value")
				return
			}
		}
		rt.proxy(w, r, method, path, body)
	}
}
