package pipeline

import (
	"context"
	"errors"
	"testing"
)

func TestRunWeekCancelledBeforeStart(t *testing.T) {
	p, _ := fixture(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.RunWeek(ctx, Config{Region: "testreg", Week: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The failed run must be recorded on the dashboard like any other
	// failure, so operators see abandoned runs.
	sum := p.Dash.Summarize()
	if sum.Failed != 1 {
		t.Errorf("dashboard failed runs = %d, want 1", sum.Failed)
	}
}
