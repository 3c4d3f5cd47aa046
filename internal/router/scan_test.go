package router

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The routing structs a scan stands in for, decoded by encoding/json as the
// reference.
type (
	routeItemRef struct {
		ServerID string `json:"server_id"`
	}
	predictRef struct {
		ServerID    string `json:"server_id"`
		LiveHistory bool   `json:"live_history"`
	}
	batchRef struct {
		Servers []routeItemRef `json:"servers"`
	}
	ingestRef struct {
		Servers []routeItemRef  `json:"servers"`
		Points  []routeItemRef  `json:"points"`
		Sweep   json.RawMessage `json:"sweep"`
	}
	// The references for the items' byte ranges.
	rawBatchRef struct {
		Servers []json.RawMessage `json:"servers"`
	}
	rawIngestRef struct {
		Servers []json.RawMessage `json:"servers"`
		Points  []json.RawMessage `json:"points"`
	}
)

// checkItems compares one split array of a scan with encoding/json's
// decode: each item's byte range is the json.RawMessage encoding/json cut
// for it, and its server_id is what those bytes alone decode to. Without a
// repeated split-array key that is also the routing struct's server_id;
// with one, encoding/json would merge the last array's items into the
// earlier arrays' elements, which the owner never sees.
func checkItems(t *testing.T, name string, body []byte, got itemList, raw []json.RawMessage) {
	t.Helper()
	if len(got.spans) != len(raw) || len(got.ids) != len(raw) {
		t.Fatalf("%s: %d item ranges and %d server_ids, encoding/json %d items", name, len(got.spans), len(got.ids), len(raw))
	}
	for i, sp := range got.spans {
		if item := body[sp.start:sp.end]; !bytes.Equal(item, raw[i]) {
			t.Fatalf("%s[%d] = %q, encoding/json %q", name, i, item, raw[i])
		}
		var ref routeItemRef
		if err := json.Unmarshal(raw[i], &ref); err != nil || got.ids[i] != ref.ServerID {
			t.Fatalf("%s[%d] server_id = %q, encoding/json %q (%v)", name, i, got.ids[i], ref.ServerID, err)
		}
	}
}

// FuzzRouteScan holds the scan to encoding/json: for every input and every
// route, the scan fails exactly when json.Unmarshal into the route's struct
// fails, and otherwise reads the same server_id, live_history and sweep,
// cuts each item exactly where encoding/json cuts a json.RawMessage, and
// reads each item's server_id as encoding/json decodes those bytes.
func FuzzRouteScan(f *testing.F) {
	for _, seed := range []string{
		`{"server_id":"srv-1","live_history":true,"history":{"values":[1, 2.5e-3]}}`,
		`{"scenario":"a","servers":[{"server_id":"a","history":{"values":[1]}}, {"server_id":"b"}],"region":"r"}`,
		`{"servers":[{"server_id":"a","values":[1,2]}],"points":[{"server_id":"b","t_unix":1,"v":0.5}],"sweep":{"region":"r","week":1}}`,
		`{"SERVER_ID":"x","SERVERS":[{"Server_Id":"y"}]}`,
		`{"ſerver_id":"x","ſervers":[{"ſerver_id":"y"}]}`,
		`{"server_id":"x","servers":[{"server_id":"y<"}]}`,
		`{"server_id":"a","server_id":"b","live_history":true,"live_history":false}`,
		`{"servers":[{"server_id":"a"},{"server_id":"b"}],"servers":[{}]}`,
		`{"servers":[{"server_id":"a"},{"server_id":"b"}],"servers":[{}],"servers":[null,{}]}`,
		`{"points":[{"server_id":"a","v":1}],"points":[{"t_unix":2}]}`,
		`{"sweep":{"week":1},"sweep":null}`,
		`null`,
		`{"servers":[null,{"server_id":"a"}],"points":null}`,
		`{"server_id":null}`,
		`{"server_id":7}`,
		`{"live_history":"true"}`,
		`{"servers":{}}`,
		`{"servers":[1]}`,
		`[]`,
		`{"x":-0}`,
		`{"x":01}`,
		`{"x":1e}`,
		"{\"server_id\":\"a\x01\"}",
		"{\"server_id\":\"\xff\xfe\",\"servers\":[{\"server_id\":\"\xc3\"}]}",
		`{"server_id":"a"} trailing`,
		`{"server_id":"a"}{}`,
		`{"server\u005fid":"x","servers":[{"server\u005Fid":"y\u003c"}]}`,
		`{"x":[[[[[]]]]], "y":truex}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var p predictRef
		wantErr := json.Unmarshal(body, &p)
		got, err := scanBody(body, predictRoute)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("predict: scan error %v, encoding/json %v", err, wantErr)
		}
		if err == nil && (got.serverID != p.ServerID || got.liveHistory != p.LiveHistory) {
			t.Fatalf("predict: scan read (%q, %v), encoding/json (%q, %v)",
				got.serverID, got.liveHistory, p.ServerID, p.LiveHistory)
		}

		var b batchRef
		wantErr = json.Unmarshal(body, &b)
		got, err = scanBody(body, batchRoute)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("batch: scan error %v, encoding/json %v", err, wantErr)
		}
		if err == nil {
			var raw rawBatchRef
			if err := json.Unmarshal(body, &raw); err != nil {
				t.Fatalf("the batch struct decodes but the raw items do not: %v", err)
			}
			checkItems(t, "batch servers", body, got.servers, raw.Servers)
		}

		var in ingestRef
		wantErr = json.Unmarshal(body, &in)
		got, err = scanBody(body, ingestRoute)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("ingest: scan error %v, encoding/json %v", err, wantErr)
		}
		if err == nil {
			var raw rawIngestRef
			if err := json.Unmarshal(body, &raw); err != nil {
				t.Fatalf("the ingest struct decodes but the raw items do not: %v", err)
			}
			checkItems(t, "ingest servers", body, got.servers, raw.Servers)
			checkItems(t, "ingest points", body, got.points, raw.Points)
			if sweep := len(in.Sweep) > 0 && string(in.Sweep) != "null"; got.sweep != sweep {
				t.Fatalf("ingest: scan sweep %v, encoding/json %q", got.sweep, in.Sweep)
			}
		}
	})
}

// TestRouteScanDepth: the scan keeps encoding/json's nesting limit, 10,000
// levels counted from the top-level object. The limit is a table test, not
// a fuzz seed, because inputs this large stall the fuzz engine.
func TestRouteScanDepth(t *testing.T) {
	nest := func(levels int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", levels-1) + strings.Repeat("]", levels-1) + `}`)
	}
	for _, levels := range []int{9999, 10000, 10001, 10002} {
		body := nest(levels)
		var ref predictRef
		wantErr := json.Unmarshal(body, &ref)
		if _, err := scanBody(body, predictRoute); (err != nil) != (wantErr != nil) {
			t.Errorf("%d levels: scan error %v, encoding/json %v", levels, err, wantErr)
		}
	}
}
