package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func historiesJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	ids, hist := fleetHistories(seed, 8, historyDays)
	out, err := json.Marshal(struct {
		IDs  []string
		Hist any
	}{ids, hist})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFleetHistoriesAreAFunctionOfTheSeed(t *testing.T) {
	a, b, c := historiesJSON(t, 1), historiesJSON(t, 1), historiesJSON(t, 2)
	if !bytes.Equal(a, b) {
		t.Error("two generations from seed 1 differ")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 1 and 2 generate the same histories")
	}
	_, hist := fleetHistories(1, 8, historyDays)
	for i, h := range hist {
		if h.Len() != historyDays*pointsPerDay {
			t.Errorf("history %d has %d points, want %d", i, h.Len(), historyDays*pointsPerDay)
		}
	}
}

func TestTelemetryIsAFunctionOfSeedServerAndSlot(t *testing.T) {
	differ := false
	for s := 0; s < 64; s++ {
		for k := int64(0); k < 600; k += 7 {
			v := telemetry(1, s, k)
			if v != telemetry(1, s, k) {
				t.Fatalf("telemetry(1, %d, %d) is not repeatable", s, k)
			}
			if v <= 0 || v >= 100 {
				t.Fatalf("telemetry(1, %d, %d) = %g, outside (0, 100)", s, k, v)
			}
			if v != telemetry(2, s, k) {
				differ = true
			}
		}
	}
	if !differ {
		t.Error("seeds 1 and 2 generate the same telemetry")
	}
}

func TestIngestBodiesAreAFunctionOfTheSeed(t *testing.T) {
	w1, w1b, w2 := &ingestWire{seed: 1}, &ingestWire{seed: 1}, &ingestWire{seed: 2}
	for _, asPoints := range []bool{false, true} {
		a, b, c := w1.ingestBody(3, 5, asPoints), w1b.ingestBody(3, 5, asPoints), w2.ingestBody(3, 5, asPoints)
		if !bytes.Equal(a, b) {
			t.Errorf("points=%v: two bodies from seed 1 differ", asPoints)
		}
		if bytes.Equal(a, c) {
			t.Errorf("points=%v: seeds 1 and 2 give the same body", asPoints)
		}
	}
	// Both forms carry the same points.
	var series, points ingestReq
	if err := json.Unmarshal(w1.ingestBody(3, 5, false), &series); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(w1.ingestBody(3, 5, true), &points); err != nil {
		t.Fatal(err)
	}
	if len(series.Servers) != ingestGroup || len(points.Points) != ingestCallPts {
		t.Fatalf("%d series and %d points, want %d and %d", len(series.Servers), len(points.Points), ingestGroup, ingestCallPts)
	}
	seen := 0
	for _, p := range points.Points {
		for _, s := range series.Servers {
			if s.ServerID != p.ServerID {
				continue
			}
			j := int((p.TimeUnix - s.Start.Unix()) / 300)
			if j < 0 || j >= len(s.Values) || s.Values[j] != p.Value {
				t.Fatalf("point %+v is not in the series form", p)
			}
			seen++
		}
	}
	if seen != ingestCallPts {
		t.Errorf("matched %d points, want %d", seen, ingestCallPts)
	}
}

func TestBatchOfWalksEveryGroupForward(t *testing.T) {
	seen := map[[2]int64]bool{}
	for c := 0; c < clientCount; c++ {
		for f := uint64(0); f < 3*clientGroups; f++ {
			g, h := batchOf(c, f)
			if g%clientCount != c || g < 0 || g >= ingestGroups {
				t.Fatalf("client %d batch %d is group %d: not its own", c, f, g)
			}
			key := [2]int64{int64(g), h}
			if seen[key] {
				t.Fatalf("group %d hour %d is sent twice as fresh", g, h)
			}
			seen[key] = true
		}
	}
	if len(seen) != 3*ingestGroups {
		t.Errorf("%d (group, hour) batches, want every group for three hours: %d", len(seen), 3*ingestGroups)
	}
}
