package serving

import (
	"context"
	"testing"
	"time"

	"seagull/internal/forecast"
	"seagull/internal/modelpool"
	"seagull/internal/registry"
	"seagull/internal/timeseries"
)

// slowModel delays every Train by a fixed amount.
type slowModel struct {
	forecast.Model
	delay time.Duration
}

func (m *slowModel) Train(h timeseries.Series) error {
	time.Sleep(m.delay)
	return m.Model.Train(h)
}

// TestBatchPerItemDeadline: an item with an expired per-item deadline fails
// alone with deadline_exceeded while the rest of the batch — and the request
// itself — succeed.
func TestBatchPerItemDeadline(t *testing.T) {
	reg := registry.New(nil)
	svc := NewService(reg, nil, ServiceConfig{
		Workers: 1,
		Pool: modelpool.Config{NewModel: func(name string, seed int64) (forecast.Model, error) {
			inner, err := forecast.New(name, seed)
			if err != nil {
				return nil, err
			}
			return &slowModel{Model: inner, delay: 30 * time.Millisecond}, nil
		}},
	})
	reg.Deploy(registry.Target{Scenario: "backup", Region: "r"}, forecast.NamePersistentPrevDay, "")

	good := FromSeries(weekHistory())
	req := BatchRequest{Scenario: "backup", Region: "r", Servers: []BatchItem{
		{ServerID: "tight", History: good, Horizon: 288, DeadlineMS: 1},
		{ServerID: "roomy", History: good, Horizon: 288},
	}}
	resp, serr := svc.PredictBatch(context.Background(), req)
	if serr != nil {
		t.Fatalf("batch failed wholesale: %v", serr)
	}
	if resp.Succeeded != 1 || resp.Failed != 1 {
		t.Fatalf("batch = %d ok / %d failed, want 1 / 1", resp.Succeeded, resp.Failed)
	}
	tight, roomy := resp.Results[0], resp.Results[1]
	if tight.Error == nil || tight.Error.Code != CodeDeadline {
		t.Fatalf("tight item error = %+v, want %s", tight.Error, CodeDeadline)
	}
	if roomy.Error != nil || roomy.Forecast == nil {
		t.Fatalf("roomy item = %+v, want success", roomy)
	}

	// Without per-item deadlines the same batch fully succeeds.
	for i := range req.Servers {
		req.Servers[i].DeadlineMS = 0
	}
	resp, serr = svc.PredictBatch(context.Background(), req)
	if serr != nil || resp.Failed != 0 {
		t.Fatalf("deadline-free batch: %v / %+v", serr, resp)
	}

	// A generous per-item deadline does not interfere.
	req.Servers[0].DeadlineMS = 60_000
	resp, serr = svc.PredictBatch(context.Background(), req)
	if serr != nil || resp.Failed != 0 {
		t.Fatalf("generous deadline batch: %v / %+v", serr, resp)
	}
}
