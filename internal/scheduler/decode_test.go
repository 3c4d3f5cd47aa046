package scheduler

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"seagull/internal/jsonbody"
	"seagull/internal/pipeline"
)

// storedPrediction is a stored prediction as the weekly run writes one,
// with n five-minute values of up to 17 significant digits (288 for a day).
func storedPrediction(tb testing.TB, n int) []byte {
	day := time.Date(2019, 12, 8, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 100 * rng.Float64()
	}
	body, err := json.Marshal(&pipeline.PredictionDoc{
		ServerID: "srv-000042", Region: "eastus", Week: 3, Model: "persistent-prev-day",
		BackupDay: day, WindowPoints: 12, IntervalMin: 5, DefaultStart: day.Add(2 * time.Hour),
		Values: vals, LLStart: 17, LLAvg: 12.345678901234567, Refreshes: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestWalkFillsPrediction: the walk itself, not the encoding/json fallback,
// fills a stored prediction and its scheduler view, and fills them as
// encoding/json does.
func TestWalkFillsPrediction(t *testing.T) {
	body := storedPrediction(t, 288)
	for _, fresh := range []func() jsonbody.Walker{
		func() jsonbody.Walker { return new(pipeline.PredictionDoc) },
		func() jsonbody.Walker { return new(predictionFields) },
	} {
		got, want := fresh(), fresh()
		s := jsonbody.NewScanner(body)
		if err := got.WalkJSON(&s); err != nil || s.End() != nil {
			t.Fatalf("%T: walk left the body to encoding/json: %v", got, err)
		}
		if err := json.Unmarshal(body, want); err != nil {
			t.Fatal(err)
		}
		checkSameDecode(t, body, got, want)
	}
}

// FuzzStoredDecode holds the stored-prediction decode to encoding/json: for
// a PredictionDoc and the scheduler's predictionFields, jsonbody.Unmarshal
// fails exactly when json.Unmarshal fails, with its message, and otherwise
// fills the same value, float for float bit-identical, into a zero
// destination and into a pre-filled one.
func FuzzStoredDecode(f *testing.F) {
	f.Add(storedPrediction(f, 4)) // short, so that minimizing an input derived from it is quick
	for _, seed := range []string{
		`{"server_id":"a","ſerver_id":"b","REGION":"r","Week":2}`,
		`{"values":[1,2],"values":[3]}`, `{"values":null,"backup_day":null,"week":null}`,
		`{"values":[1e400]}`, `{"values":[12345678901234567890,-0,0.1]}`,
		`{"values":[2.5e-3,1E2],"ll_avg":-4e1}`, `{"week":1.5}`, `{"week":"1"}`,
		`{"backup_day":"monday"}`, `{"backup_day":7}`, `{"default_start":"2019-12-08T02:00:00+01:00"}`,
		`{"week":1} trailing`, `{"values":{}}`, `[]`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		day := time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)
		for _, fresh := range []func() any{
			func() any { return new(pipeline.PredictionDoc) },
			func() any {
				return &pipeline.PredictionDoc{ServerID: "old", Week: 9, BackupDay: day, Values: []float64{7, 8, 9, 10}[:2], LLAvg: 1}
			},
			func() any { return new(predictionFields) },
			func() any { return &predictionFields{ServerID: "old", Week: 9, DefaultStart: day, LLStart: 4} },
		} {
			got, want := fresh(), fresh()
			gotErr, wantErr := jsonbody.Unmarshal(body, got), json.Unmarshal(body, want)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q into %T: jsonbody error %v, encoding/json %v", body, got, gotErr, wantErr)
			}
			if wantErr == nil {
				checkSameDecode(t, body, got, want)
			}
		}
	})
}

// checkSameDecode fails unless got and want hold the same decoded value,
// with every float equal bit for bit.
func checkSameDecode(t *testing.T, body []byte, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: jsonbody:\n%+v\nencoding/json:\n%+v", body, got, want)
	}
	if g, ok := got.(*pipeline.PredictionDoc); ok {
		w := want.(*pipeline.PredictionDoc)
		gf, wf := append(slices.Clone(g.Values), g.LLAvg), append(slices.Clone(w.Values), w.LLAvg)
		for i := range gf {
			if math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
				t.Fatalf("%q: float %d is %v, encoding/json %v", body, i, gf[i], wf[i])
			}
		}
	}
}

// BenchmarkDecodePrediction times decoding one stored 288-value prediction
// with encoding/json and with the walk every reader of stored predictions
// uses.
func BenchmarkDecodePrediction(b *testing.B) {
	body := storedPrediction(b, 288)
	for _, c := range []struct {
		name   string
		decode func([]byte, any) error
	}{
		{"encoding-json", json.Unmarshal},
		{"walk", jsonbody.Unmarshal},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var doc pipeline.PredictionDoc
				if err := c.decode(body, &doc); err != nil || len(doc.Values) != 288 {
					b.Fatal(err)
				}
			}
		})
	}
}
