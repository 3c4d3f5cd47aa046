package serving

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"seagull/internal/forecast"
	"seagull/internal/registry"
	"seagull/internal/stream"
)

// FuzzJSONRoutes posts arbitrary bytes to the three JSON request routes of a
// service with an ingestor attached, with encoding/json as the oracle for
// what a well-formed body is. Whatever the bytes, a route never panics and
// never answers 500, every non-2xx reply is the {"error":{code,message}}
// envelope, and a body that encoding/json rejects for the route's wire type
// is never answered 200. The seed corpus lives in
// testdata/fuzz/FuzzJSONRoutes.
func FuzzJSONRoutes(f *testing.F) {
	f.Add([]byte(`{"scenario":"backup","region":"r","horizon":24}`))
	routes := []struct {
		path string
		wire func() any
	}{
		{"/v2/predict", func() any { return new(PredictRequestV2) }},
		{"/v2/predict/batch", func() any { return new(BatchRequest) }},
		{"/v2/ingest", func() any { return new(IngestRequest) }},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reg := registry.New(nil)
		reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")
		svc := NewService(reg, nil, ServiceConfig{Ingestor: stream.NewIngestor(stream.Config{})})
		defer svc.Close()
		for _, route := range routes {
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.path, bytes.NewReader(body)))
			status := rec.Code
			if status == http.StatusInternalServerError {
				t.Fatalf("%s answered 500: %s", route.path, rec.Body)
			}
			if status < 200 || status > 299 {
				var env struct {
					Error *ErrorBody `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil ||
					env.Error.Code == "" || env.Error.Message == "" {
					t.Fatalf("%s answered %d without the error envelope: %q", route.path, status, rec.Body)
				}
			}
			if err := json.Unmarshal(body, route.wire()); err != nil && status == http.StatusOK {
				t.Fatalf("%s answered 200 to a body encoding/json rejects (%v)", route.path, err)
			}
		}
	})
}

// FuzzFloats holds Floats to encoding/json: decoding a document into a
// Floats field and into a []float64 field must give the same error (or
// none), the same nil-ness and length, and bit-identical values, into an
// empty destination and into one pre-filled past its length.
func FuzzFloats(f *testing.F) {
	for _, seed := range []string{`[]`, `null`, `[1e400]`, `[-0]`, `[1,null]`, `[1,"a"]`, `[4.9e-324]`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc := append(append([]byte(`{"v":`), data...), '}')
		for _, prefill := range []func() []float64{
			func() []float64 { return nil },
			func() []float64 { return []float64{7, 8, 9, 10, 11, 12}[:3] },
		} {
			var want struct {
				V []float64 `json:"v"`
			}
			var got struct {
				V Floats `json:"v"`
			}
			want.V, got.V = prefill(), prefill()
			wantErr, gotErr := json.Unmarshal(doc, &want), json.Unmarshal(doc, &got)
			if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
				t.Fatalf("%q: Floats error %v, []float64 error %v", doc, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if (want.V == nil) != (got.V == nil) || len(want.V) != len(got.V) {
				t.Fatalf("%q: Floats %#v, []float64 %#v", doc, got.V, want.V)
			}
			for i := range want.V {
				if math.Float64bits(want.V[i]) != math.Float64bits(got.V[i]) {
					t.Fatalf("%q: element %d is %v, []float64 has %v", doc, i, got.V[i], want.V[i])
				}
			}
		}
	})
}
