package serving

import (
	"context"
	"net/http"
	"testing"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/registry"
	"seagull/internal/timeseries"
)

var t0 = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)

func weekHistory() timeseries.Series {
	vals := make([]float64, 7*288)
	for i := range vals {
		if i%288 >= 96 && i%288 < 192 {
			vals[i] = 60
		} else {
			vals[i] = 10
		}
	}
	return timeseries.New(t0, 5*time.Minute, vals)
}

func TestHealthz(t *testing.T) {
	srv, _, _ := v2Server(t, ServiceConfig{})
	c := NewClient(srv.URL)
	if !c.Healthy() {
		t.Error("endpoint should be healthy")
	}
	srv.Close()
	if c.Healthy() {
		t.Error("a closed endpoint must not report healthy")
	}
}

func TestModelsListing(t *testing.T) {
	srv, _, reg := v2Server(t, ServiceConfig{})
	c := NewClient(srv.URL)
	ctx := context.Background()
	resp, err := c.ModelsV2(ctx)
	if err != nil || len(resp.Models) != 0 {
		t.Errorf("empty registry: %v %v", resp.Models, err)
	}

	tgt := registry.Target{Scenario: "backup", Region: "westus"}
	v := reg.Deploy(tgt, forecast.NamePersistentPrevDay, "")
	_ = reg.RecordAccuracy(tgt, v, 0.99)
	reg.Deploy(registry.Target{Scenario: "autoscale", Region: "eastus"}, forecast.NameSSA, "")

	resp, err = c.ModelsV2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	models := resp.Models
	if len(models) != 2 {
		t.Fatalf("models = %+v", models)
	}
	// Sorted by target string: autoscale/eastus first.
	if models[0].Scenario != "autoscale" || models[0].Model != forecast.NameSSA {
		t.Errorf("models[0] = %+v", models[0])
	}
	if models[1].Accuracy != 0.99 {
		t.Errorf("models[1] = %+v", models[1])
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	s := timeseries.New(t0, 5*time.Minute, []float64{1, 2, 3})
	got := FromSeries(s).ToSeries()
	if !got.Start.Equal(s.Start) || got.Interval != s.Interval || got.Len() != 3 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _, _ := v2Server(t, ServiceConfig{})
	resp, err := http.Get(srv.URL + "/v2/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/predict status = %d", resp.StatusCode)
	}
}
