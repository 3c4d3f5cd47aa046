package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"seagull/internal/jsonbody"
)

// ingestSubBody is a /v2/ingest body as the router sends one replica its
// share of a 64-server call: 32 series of an hour of five-minute telemetry
// whose values carry 2 decimals.
func ingestSubBody(tb testing.TB) []byte {
	req := IngestRequest{Servers: make([]IngestSeries, 32)}
	start := time.Date(2019, 12, 8, 0, 0, 0, 0, time.UTC)
	for i := range req.Servers {
		vals := make([]float64, 12)
		for j := range vals {
			vals[j] = math.Round(100*(20+10*math.Sin(float64(i*12+j)/7))) / 100
		}
		req.Servers[i] = IngestSeries{ServerID: fmt.Sprintf("live-srv-%06d", i), Start: start, IntervalMin: 5, Values: vals}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestWalkFillsIngest: the walk itself, not the encoding/json fallback,
// fills an ingest body as the router sends it, and fills it as
// encoding/json does.
func TestWalkFillsIngest(t *testing.T) {
	body := ingestSubBody(t)
	var got, want IngestRequest
	s := jsonbody.NewScanner(body)
	if err := got.WalkJSON(&s); err != nil || s.End() != nil {
		t.Fatalf("walk left the body to encoding/json: %v", err)
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk:\n%+v\nencoding/json:\n%+v", got, want)
	}
}

// BenchmarkDecodeIngest times the replica's route decode of one
// router-shaped ingest body: read it under the body limit and fill the
// typed request.
func BenchmarkDecodeIngest(b *testing.B) {
	body := ingestSubBody(b)
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v2/ingest", nil)
	r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
	w := httptest.NewRecorder()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		rd.Reset(body)
		var req IngestRequest
		if serr := DecodeRequest(w, r, &req); serr != nil || len(req.Servers) != 32 {
			b.Fatal(serr)
		}
	}
}
