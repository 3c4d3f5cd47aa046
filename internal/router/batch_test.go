package router

// The batch split/merge contract, checked three ways: a fuzz target over the
// pure merge, a property test through real HTTP fake replicas, and two
// regression tests for the defects the ordered scatter fixed (short replies
// silently zero-filled; model/version chosen by goroutine race).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"seagull/internal/serving"
	"seagull/internal/shard"
)

// shardFate scripts one replica's behaviour for a batch.
type shardFate struct {
	dead bool // transport failure: every owned item must fail naming the shard
	drop int  // results withheld from the tail of an otherwise healthy reply
}

// checkMerged asserts the merge contract: results in request order; a dead
// shard fails only its own items, each naming the shard; withheld results
// fail as internal, naming the shard; every other item succeeds; the counts
// add up; model/version come from the first live shard in shard-map order.
// A live shard reports model "m-<name>" and version = its shard-map index.
func checkMerged(t *testing.T, smap *shard.Map, fates map[string]shardFate, ids []string, got serving.BatchResponse) {
	t.Helper()
	if len(got.Results) != len(ids) {
		t.Fatalf("%d results for %d items", len(got.Results), len(ids))
	}
	parts := smap.Split(ids)
	failed := 0
	for name, idxs := range parts {
		fate := fates[name]
		for j, i := range idxs {
			res := got.Results[i]
			if res.ServerID != ids[i] {
				t.Fatalf("results[%d] is %q, want %q: request order lost", i, res.ServerID, ids[i])
			}
			switch {
			case fate.dead:
				failed++
				if res.Error == nil || res.Error.Code != serving.CodeOverloaded || !strings.Contains(res.Error.Message, name) {
					t.Fatalf("item %d of dead shard %s: %+v", i, name, res.Error)
				}
			case j >= len(idxs)-fate.drop:
				failed++
				if res.Error == nil || res.Error.Code != serving.CodeInternal || !strings.Contains(res.Error.Message, name) {
					t.Fatalf("item %d withheld by shard %s: %+v", i, name, res.Error)
				}
			default:
				if res.Error != nil || res.Forecast == nil {
					t.Fatalf("item %d of healthy shard %s failed: %+v", i, name, res.Error)
				}
			}
			if res.Error != nil && (res.LLStart != -1 || res.Forecast != nil) {
				t.Fatalf("failed item %d carries a forecast: %+v", i, res)
			}
		}
	}
	if got.Failed != failed || got.Succeeded+got.Failed != len(ids) {
		t.Fatalf("succeeded=%d failed=%d, want %d failed of %d", got.Succeeded, got.Failed, failed, len(ids))
	}
	wantModel, wantVersion := "", 0
	for v, name := range smap.Replicas() {
		if _, owns := parts[name]; owns && !fates[name].dead {
			wantModel, wantVersion = "m-"+name, v
			break
		}
	}
	if got.Model != wantModel || got.Version != wantVersion {
		t.Fatalf("model/version = %q/%d, want the first live shard's %q/%d", got.Model, got.Version, wantModel, wantVersion)
	}
}

// healthyReply is what a live shard answers for a sub-batch, minus the
// withheld tail.
func healthyReply(name string, version int, ids []string, drop int) serving.BatchResponse {
	out := serving.BatchResponse{Model: "m-" + name, Version: version, Succeeded: len(ids)}
	for _, id := range ids[:len(ids)-drop] {
		out.Results = append(out.Results, serving.BatchItemResult{
			ServerID: id, Forecast: &serving.SeriesJSON{Values: []float64{1}},
		})
	}
	return out
}

// FuzzBatchSplitMerge drives the pure half of handleBatch — Split, then
// mergeBatch over scripted replies — with arbitrary membership sizes, key
// sets (duplicates included), dead shards and short replies. The named
// seeds live in testdata/fuzz/FuzzBatchSplitMerge.
func FuzzBatchSplitMerge(f *testing.F) {
	f.Add(uint64(42), uint8(4), uint8(0b0101), uint8(0b0010), []byte("abcdefghabc"))
	f.Fuzz(func(t *testing.T, seed uint64, n, deadMask, shortMask uint8, keys []byte) {
		if len(keys) == 0 {
			t.Skip("the handler rejects an empty batch before splitting")
		}
		names := make([]string, 1+int(n%8))
		for i := range names {
			names[i] = fmt.Sprintf("shard-%c", 'a'+i)
		}
		smap, err := shard.New(seed, names)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(keys))
		for i, k := range keys {
			ids[i] = fmt.Sprintf("srv-%03d", k)
		}
		parts := smap.Split(ids)
		fates := map[string]shardFate{}
		var replies []reply[serving.BatchResponse]
		for v, name := range smap.Replicas() {
			idxs, owns := parts[name]
			if !owns {
				continue
			}
			fate := shardFate{dead: deadMask>>v&1 == 1}
			if shortMask>>v&1 == 1 {
				fate.drop = 1 + int(seed%uint64(len(idxs)))
			}
			fates[name] = fate
			rep := reply[serving.BatchResponse]{name: name}
			if fate.dead {
				rep.err = errors.New("connection refused")
			} else {
				sub := make([]string, len(idxs))
				for j, i := range idxs {
					sub[j] = ids[i]
				}
				rep.val = healthyReply(name, v, sub, fate.drop)
			}
			replies = append(replies, rep)
		}
		checkMerged(t, smap, fates, ids, mergeBatch(ids, parts, replies))
	})
}

// batchFake is a replica that speaks only /v2/predict/batch, following its
// scripted fate.
type batchFake struct {
	name    string
	version int
	dead    atomic.Bool
	drop    atomic.Int64
	srv     *httptest.Server
}

func newBatchFleet(t *testing.T, n int) ([]*batchFake, *Router) {
	t.Helper()
	cfg := Config{
		Seed:    11,
		Retry:   serving.RetryConfig{MaxAttempts: 1},
		Breaker: serving.BreakerConfig{Threshold: -1},
	}
	fakes := make([]*batchFake, n)
	for i := range fakes {
		f := &batchFake{name: fmt.Sprintf("shard-%c", 'a'+i), version: i}
		f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if f.dead.Load() {
				panic(http.ErrAbortHandler) // drops the connection: a transport failure
			}
			var req serving.BatchRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("fake %s: %v", f.name, err)
			}
			ids := make([]string, len(req.Servers))
			for j := range req.Servers {
				ids[j] = req.Servers[j].ServerID
			}
			_ = json.NewEncoder(w).Encode(healthyReply(f.name, f.version, ids, int(f.drop.Load())))
		}))
		t.Cleanup(f.srv.Close)
		fakes[i] = f
		cfg.Replicas = append(cfg.Replicas, Replica{Name: f.name, BaseURL: f.srv.URL})
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fakes, rt
}

// routeBatch sends ids through the router's real handler and decodes the
// merged answer.
func routeBatch(t *testing.T, rt *Router, ids []string) serving.BatchResponse {
	t.Helper()
	req := serving.BatchRequest{Scenario: "backup", Region: "r"}
	for _, id := range ids {
		req.Servers = append(req.Servers, serving.BatchItem{ServerID: id, Horizon: 1})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/predict/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", rec.Code, rec.Body)
	}
	var out serving.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchSplitMergeProperty: for N ∈ {1,2,4} replicas and random dead
// shards, a routed batch comes back in request order, a dead shard fails only
// its own items (each naming it), and the counts add up.
func TestBatchSplitMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 4} {
		fakes, rt := newBatchFleet(t, n)
		for round := 0; round < 12; round++ {
			fates := map[string]shardFate{}
			for _, f := range fakes {
				fate := shardFate{dead: rng.Intn(3) == 0}
				f.dead.Store(fate.dead)
				fates[f.name] = fate
			}
			ids := make([]string, 1+rng.Intn(24))
			for i := range ids {
				ids[i] = fmt.Sprintf("srv-%04d", rng.Intn(40)) // duplicates on purpose
			}
			checkMerged(t, rt.Map(), fates, ids, routeBatch(t, rt, ids))
		}
	}
}

// TestBatchShortReplyFailsMissingItems: a replica that answers with fewer
// results than items sent used to leave zero-valued results counted neither
// succeeded nor failed; the missing items must fail per item as internal,
// naming the replica.
func TestBatchShortReplyFailsMissingItems(t *testing.T) {
	fakes, rt := newBatchFleet(t, 2)
	fakes[1].drop.Store(2)
	var ids []string
	for i := 0; len(ids) < 12; i++ {
		ids = append(ids, fmt.Sprintf("srv-%04d", i))
	}
	if owned := len(rt.Map().Split(ids)["shard-b"]); owned < 3 {
		t.Fatalf("shard-b owns %d of the keys; the test needs at least 3", owned)
	}
	fates := map[string]shardFate{"shard-b": {drop: 2}}
	got := routeBatch(t, rt, ids)
	checkMerged(t, rt.Map(), fates, ids, got)
	if got.Failed != 2 {
		t.Fatalf("failed = %d, want the 2 withheld items", got.Failed)
	}
}

// TestBatchModelVersionFromFirstShard: with replicas reporting different
// versions the merged model/version used to be whichever goroutine took the
// mutex first; it is now the first successful shard in shard-map order,
// every time.
func TestBatchModelVersionFromFirstShard(t *testing.T) {
	_, rt := newBatchFleet(t, 2)
	ids := []string{"srv-0001", "srv-0002", "srv-0003", "srv-0004", "srv-0005", "srv-0006"}
	if parts := rt.Map().Split(ids); len(parts) != 2 {
		t.Fatalf("keys land on %d shards; the test needs both", len(parts))
	}
	for run := 0; run < 100; run++ {
		got := routeBatch(t, rt, ids)
		if got.Model != "m-shard-a" || got.Version != 0 {
			t.Fatalf("run %d: model/version = %q/%d, want shard-a's", run, got.Model, got.Version)
		}
	}
}
