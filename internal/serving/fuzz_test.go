package serving

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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

// FuzzWireDecode holds the replica's request decode to encoding/json: for a
// predict and a batch, DecodeRequest fails exactly when json.Unmarshal into
// a fresh value fails, with its message, and otherwise fills the same
// request, float for float bit-identical.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range []string{
		`{"scenario":"backup","region":"r","server_id":"s","horizon":288,"window_points":12,"live_history":false,` +
			`"history":{"start":"2019-12-01T00:00:00Z","interval_min":5,"values":[1,2.5e-3,-0]}}`,
		`{"scenario":"a","servers":[{"server_id":"s1","history":{"values":[1]},"deadline_ms":5},null,{}],"region":"r"}`,
		`{"scenario":"a","scenario":"b","SCENARIO":"c","Region":"r","ſcenario":"d","servers":[{"SERVER_ID":"x"}]}`,
		`{"history":{"values":[1,2]},"history":{"interval_min":5}}`,
		`{"servers":[{"server_id":"a","horizon":1}],"servers":[{"server_id":"b"}]}`,
		`{"scenario":null,"history":null,"horizon":null,"live_history":null,"servers":null}`,
		`{"history":{"start":null,"values":null,"interval_min":null},"servers":[{"history":{"values":[null]}}]}`,
		`{"history":{"values":[-0,0,-0.0,1e400]}}`,
		`{"history":{"values":[1e-400,4.9e-324,1.7976931348623157e308]}}`,
		`{"server_id":"a\u0062c","servers":[{"server_id":"\u00e9"},{"server_id":"é"}]}`,
		`{"scen\u0061rio":"x","history":{"v\u0061lues":[1]},"ſervers":[{"horizon":1}]}`,
		`{"horizon":1.5}`, `{"horizon":1e2}`, `{"horizon":9223372036854775808}`, `{"horizon":"1"}`,
		`{"live_history":1}`, `{"history":{"start":"yesterday"}}`, `{"history":{"start":7}}`,
		`{"servers":{}}`, `{"servers":[1]}`, `[]`, `null`, `{"a":1} trailing`, `{"a":01}`, ``,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireDecode(t, body, new(PredictRequestV2), new(PredictRequestV2), func(v any) []Floats {
			return []Floats{v.(*PredictRequestV2).History.Values}
		})
		checkWireDecode(t, body, new(BatchRequest), new(BatchRequest), func(v any) []Floats {
			var out []Floats
			for _, item := range v.(*BatchRequest).Servers {
				out = append(out, item.History.Values)
			}
			return out
		})
	})
}

// checkWireDecode decodes body into got through DecodeRequest and into want
// through json.Unmarshal, and compares the two; values lists each decoded
// float array.
func checkWireDecode(t *testing.T, body []byte, got, want any, values func(any) []Floats) {
	t.Helper()
	wantErr := json.Unmarshal(body, want)
	serr := DecodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), got)
	switch {
	case wantErr != nil && (serr == nil || serr.Message != "decode request: "+wantErr.Error()):
		t.Fatalf("%T: decode error %v, encoding/json %v", got, serr, wantErr)
	case wantErr == nil && serr != nil:
		t.Fatalf("%T: decode error %v, encoding/json none", got, serr)
	case wantErr != nil:
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode:\n%+v\nencoding/json:\n%+v", got, want)
	}
	gv, wv := values(got), values(want)
	for i := range gv {
		for j := range gv[i] {
			if math.Float64bits(gv[i][j]) != math.Float64bits(wv[i][j]) {
				t.Fatalf("%T: values[%d][%d] is %v, encoding/json %v", got, i, j, gv[i][j], wv[i][j])
			}
		}
	}
}
