package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"seagull"
	"seagull/internal/serving"
)

// TestServeSmoke boots the real server wiring on an ephemeral port, checks
// liveness and readiness, runs a batch predict against the demo pipeline's
// deployment, fetches the stored demo predictions, then delivers a real
// SIGTERM and expects a clean drain.
func TestServeSmoke(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	cfg := serveConfig{
		Deploy:    "backup/smoke=pf-prev-day",
		Demo:      true,
		Drain:     5 * time.Second,
		Grace:     500 * time.Millisecond,
		Timeout:   30 * time.Second,
		Stream:    true,
		Cron:      true,
		CronEpoch: "2019-12-01T00:00:00Z",
		CronFirst: 1,
		CronLast:  1,
	}
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, ln, testWriter{t}) }()

	c := seagull.NewClient("http://" + ln.Addr().String())
	waitFor(t, func() bool { return c.Healthy() }, "healthz")
	if !c.Ready(context.Background()) {
		t.Error("server should be ready")
	}

	// Batch predict two servers against the deployed model.
	fleet := seagull.GenerateFleet(seagull.FleetConfig{Region: "smoke", Servers: 2, Weeks: 1, Seed: 7})
	var items []serving.BatchItem
	for _, srv := range fleet.Servers {
		items = append(items, serving.BatchItem{
			ServerID: srv.ID,
			History:  serving.FromSeries(srv.Load()),
			Horizon:  srv.Load().PointsPerDay(),
		})
	}
	batch, err := c.PredictBatch(context.Background(), serving.BatchRequest{
		Scenario: "backup", Region: "smoke", Servers: items,
	})
	if err != nil {
		t.Fatalf("batch predict: %v", err)
	}
	if batch.Succeeded != len(items) || batch.Failed != 0 {
		t.Fatalf("batch = %d ok / %d failed, want %d / 0", batch.Succeeded, batch.Failed, len(items))
	}

	// The -demo pipeline stored week-1 predictions for the region.
	preds, err := c.Predictions(context.Background(), "smoke", 1)
	if err != nil {
		t.Fatalf("predictions: %v", err)
	}
	if len(preds.Predictions) == 0 {
		t.Error("demo run should have stored predictions")
	}

	// The cron re-runs week 1 without an operator: the demo run deployed
	// v2, so the cron's run promotes v3 (dataset weeks have long elapsed
	// against the wall clock, so it fires immediately).
	waitFor(t, func() bool {
		ms, err := c.ModelsV2(context.Background())
		if err != nil {
			return false
		}
		for _, m := range ms.Models {
			if m.Scenario == "backup" && m.Region == "smoke" && m.Version >= 3 {
				return true
			}
		}
		return false
	}, "cron pipeline run")

	// Live ingest → drift sweep → background refresh, over the wire.
	target := preds.Predictions[0]
	day := target.BackupDay
	vals := make([]float64, 8*288)
	for i := range vals {
		if i < 7*288 {
			vals[i] = 25
		} else {
			// The live backup day runs 45 points above the stored forecast:
			// far outside the +10/−5 acceptance bound, so the prediction
			// has unambiguously drifted.
			vals[i] = target.Values[i-7*288] + 45
		}
	}
	ing, err := c.Ingest(context.Background(), serving.IngestRequest{
		Servers: []serving.IngestSeries{{
			ServerID: target.ServerID, Start: day.Add(-7 * 24 * time.Hour), IntervalMin: 5, Values: vals,
		}},
		Sweep: &serving.SweepSpec{Region: "smoke", Week: 1},
	})
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if ing.Accepted == 0 || ing.Sweep == nil {
		t.Fatalf("ingest = %+v", ing)
	}
	if ing.Sweep.Drifted == 0 || ing.Sweep.Queued == 0 {
		t.Fatalf("sweep = %+v, want the hot server drifted and queued", ing.Sweep)
	}

	// /varz reflects the whole loop once the background refresher drains.
	waitFor(t, func() bool {
		vz, err := c.Varz(context.Background())
		if err != nil || vz.Ingest == nil || vz.Drift == nil || vz.Refresh == nil {
			return false
		}
		return vz.Refresh.Refreshed >= uint64(ing.Sweep.Queued) && vz.Drift.Sweeps >= 1
	}, "background refresh observed on /varz")

	// Observability surfaces over the wire: the Prometheus exposition and
	// the trace ring both reflect the traffic this test just generated.
	base := "http://" + ln.Addr().String()
	metricsResp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metricsBody, _ := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	if ct := metricsResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	for _, want := range []string{
		"seagull_http_requests_total", "seagull_pool_hits_total",
		"seagull_ingest_appended_total", "seagull_trace_stage_total",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	tracesResp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatalf("GET /debug/traces: %v", err)
	}
	if id := tracesResp.Header.Get("X-Request-Id"); id == "" {
		t.Error("/debug/traces response carries no X-Request-Id")
	}
	tracesBody, _ := io.ReadAll(tracesResp.Body)
	tracesResp.Body.Close()
	if !strings.Contains(string(tracesBody), `"enabled":true`) ||
		!strings.Contains(string(tracesBody), `"stage":"ingest"`) {
		t.Errorf("/debug/traces = %s", tracesBody)
	}

	// Deliver a real SIGTERM to this process; the notify context catches it
	// and serve must drain cleanly. During the grace window the listener
	// stays open with /readyz reporting draining, so load balancers can
	// observe the drain before connections are refused.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	sawDraining := false
	for deadline := time.Now().Add(cfg.Grace); time.Now().Before(deadline); {
		if c.Healthy() && !c.Ready(context.Background()) {
			sawDraining = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawDraining {
		t.Error("never observed the draining state while the listener was open")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want clean shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
	if c.Healthy() {
		t.Error("endpoint still serving after shutdown")
	}
}

// TestServeRejectsNegativeMaxInflight: serve refuses a negative
// -max-inflight with an error naming the flag, instead of letting the
// service read it as the default ceiling.
func TestServeRejectsNegativeMaxInflight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = serve(context.Background(), serveConfig{MaxInflight: -1}, ln, testWriter{t})
	if err == nil || !strings.Contains(err.Error(), "-max-inflight") {
		t.Fatalf("serve = %v, want an error naming -max-inflight", err)
	}
}

// TestServeBackgroundSweep: the self-driving loop. With -sweep-interval set,
// the server discovers the demo pipeline's stored week on its own, sweeps it
// against live telemetry and retrains the drifted server — the client only
// ever ingests points; no request carries a sweep clause.
func TestServeBackgroundSweep(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := serveConfig{
		Deploy:        "backup/bgsweep=pf-prev-day",
		Demo:          true,
		Drain:         5 * time.Second,
		Timeout:       30 * time.Second,
		Stream:        true,
		SweepInterval: 50 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, ln, testWriter{t}) }()

	c := seagull.NewClient("http://" + ln.Addr().String())
	waitFor(t, func() bool { return c.Healthy() }, "healthz")

	preds, err := c.Predictions(context.Background(), "bgsweep", 1)
	if err != nil || len(preds.Predictions) == 0 {
		t.Fatalf("demo predictions: %v (%d)", err, len(preds.Predictions))
	}
	target := preds.Predictions[0]

	// Live telemetry only: history plus a backup day far above the stored
	// forecast. Zero sweep clauses anywhere in this test.
	vals := make([]float64, 8*288)
	for i := range vals {
		if i < 7*288 {
			vals[i] = 25
		} else {
			vals[i] = target.Values[i-7*288] + 45
		}
	}
	ing, err := c.Ingest(context.Background(), serving.IngestRequest{
		Servers: []serving.IngestSeries{{
			ServerID: target.ServerID, Start: target.BackupDay.Add(-7 * 24 * time.Hour),
			IntervalMin: 5, Values: vals,
		}},
	})
	if err != nil || ing.Accepted == 0 {
		t.Fatalf("ingest: %v (%+v)", err, ing)
	}
	if ing.Sweep != nil {
		t.Fatal("no sweep was requested; the response must not carry one")
	}

	// The background loop alone finds and fixes the drift.
	waitFor(t, func() bool {
		vz, err := c.Varz(context.Background())
		if err != nil || vz.Sweeper == nil || vz.Refresh == nil {
			return false
		}
		return vz.Sweeper.Ticks >= 1 && vz.Sweeper.Drifted >= 1 && vz.Refresh.Refreshed >= 1
	}, "background sweep + refresh observed on /varz")

	refreshed, err := c.Predictions(context.Background(), "bgsweep", 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, doc := range refreshed.Predictions {
		if doc.ServerID == target.ServerID && doc.Refreshes >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("drifted server was not republished by the background loop")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// recoveryServe boots serve() on an ephemeral port against dataDir and
// returns a client plus a shutdown func that drains and waits.
func recoveryServe(t *testing.T, dataDir string) (*seagull.Client, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := serveConfig{
		Deploy:   "backup/rec=pf-prev-day",
		DataDir:  dataDir,
		Drain:    5 * time.Second,
		Timeout:  30 * time.Second,
		Stream:   true,
		Snapshot: true,
	}
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, ln, testWriter{t}) }()
	c := seagull.NewClient("http://" + ln.Addr().String())
	waitFor(t, func() bool { return c.Healthy() }, "healthz")
	return c, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve returned %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

// livePredict asks the deployed model to forecast from the server-held live
// window — no history on the wire.
func livePredict(t *testing.T, c *seagull.Client) (serving.PredictResponseV2, error) {
	t.Helper()
	return c.PredictV2(context.Background(), serving.PredictRequestV2{
		Scenario: "backup", Region: "rec", ServerID: "srv-rec",
		LiveHistory: true, Horizon: 288, WindowPoints: 12,
	})
}

// TestServeSnapshotRecovery is the crash-recovery property test: a server
// killed mid-window and restarted over the same data dir must serve
// /v2/predict responses bit-identical to a server that never restarted.
func TestServeSnapshotRecovery(t *testing.T) {
	// One deterministic telemetry window, split mid-stream.
	start := time.Now().UTC().Add(-3 * 24 * time.Hour).Truncate(5 * time.Minute)
	vals := make([]float64, 2*288)
	for i := range vals {
		vals[i] = 20 + float64(i%13)
	}
	cut := 400
	ingest := func(c *seagull.Client, lo, hi int) {
		t.Helper()
		resp, err := c.Ingest(context.Background(), serving.IngestRequest{
			Servers: []serving.IngestSeries{{
				ServerID: "srv-rec", Start: start.Add(time.Duration(lo) * 5 * time.Minute),
				IntervalMin: 5, Values: vals[lo:hi],
			}},
		})
		if err != nil || resp.Accepted != hi-lo {
			t.Fatalf("ingest [%d:%d): %v (%+v)", lo, hi, err, resp)
		}
	}

	// Interrupted world: ingest half, die, restart, ingest the rest.
	dirA := t.TempDir()
	c1, shutdown1 := recoveryServe(t, dirA)
	ingest(c1, 0, cut)
	shutdown1() // SIGTERM path: drain + ring snapshot to the lake

	c2, shutdown2 := recoveryServe(t, dirA)
	defer shutdown2()
	// The restored window alone already serves live predictions.
	if resp, err := livePredict(t, c2); err != nil || len(resp.Forecast.Values) != 288 {
		t.Fatalf("predict from restored rings: %v", err)
	}
	ingest(c2, cut, len(vals))
	respA, err := livePredict(t, c2)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted world: same telemetry, one process.
	c3, shutdown3 := recoveryServe(t, t.TempDir())
	defer shutdown3()
	ingest(c3, 0, len(vals))
	respB, err := livePredict(t, c3)
	if err != nil {
		t.Fatal(err)
	}

	if respA.Model != respB.Model || respA.Version != respB.Version {
		t.Fatalf("deployment differs: %s v%d vs %s v%d", respA.Model, respA.Version, respB.Model, respB.Version)
	}
	if !respA.Forecast.Start.Equal(respB.Forecast.Start) || len(respA.Forecast.Values) != len(respB.Forecast.Values) {
		t.Fatalf("forecast shape differs: %v/%d vs %v/%d",
			respA.Forecast.Start, len(respA.Forecast.Values), respB.Forecast.Start, len(respB.Forecast.Values))
	}
	for i := range respA.Forecast.Values {
		if respA.Forecast.Values[i] != respB.Forecast.Values[i] {
			t.Fatalf("forecast[%d] = %v vs %v: restart is observable", i, respA.Forecast.Values[i], respB.Forecast.Values[i])
		}
	}
	if respA.LLStart != respB.LLStart || respA.LLAvg != respB.LLAvg {
		t.Fatalf("LL window (%d, %v) vs (%d, %v)", respA.LLStart, respA.LLAvg, respB.LLStart, respB.LLAvg)
	}
}

// TestServeSnapshotCorruption: a truncated snapshot file must produce a
// clean cold start — the server boots, reports healthy and simply has no
// live telemetry — never a panic or a refused boot.
func TestServeSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	c1, shutdown1 := recoveryServe(t, dir)
	resp, err := c1.Ingest(context.Background(), serving.IngestRequest{
		Servers: []serving.IngestSeries{{
			ServerID:    "srv-rec",
			Start:       time.Now().UTC().Add(-24 * time.Hour).Truncate(5 * time.Minute),
			IntervalMin: 5, Values: []float64{1, 2, 3, 4, 5},
		}},
	})
	if err != nil || resp.Accepted != 5 {
		t.Fatalf("ingest: %v (%+v)", err, resp)
	}
	shutdown1()

	snaps, err := filepath.Glob(filepath.Join(dir, "lake", "stream", "rings", "shard-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no per-shard snapshots written on drain: %v (%d)", err, len(snaps))
	}
	for _, snapPath := range snaps {
		fi, err := os.Stat(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(snapPath, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	}

	c2, shutdown2 := recoveryServe(t, dir)
	defer shutdown2()
	if !c2.Ready(context.Background()) {
		t.Fatal("server with a corrupt snapshot should still become ready")
	}
	// The partial restore is reported, not hidden: /varz carries the
	// degraded reason alongside the recovery stats.
	vz, err := c2.Varz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vz.Degraded == "" {
		t.Fatal("corrupt snapshot restore should report a degraded state on /varz")
	}
	if vz.Durability == nil || vz.Durability.Recovered == nil || !vz.Durability.Recovered.Degraded() {
		t.Fatalf("varz durability = %+v, want a degraded recovery outcome", vz.Durability)
	}
	// Cold start: the live window is gone, reported as not_found — not 500.
	if _, err := livePredict(t, c2); !isAPICode(err, serving.CodeNotFound) {
		t.Fatalf("predict after corrupt snapshot: %v, want not_found", err)
	}
	// The stream still works; the next drain rewrites a good snapshot.
	if _, err := c2.Ingest(context.Background(), serving.IngestRequest{
		Points: []serving.IngestPoint{{ServerID: "srv-rec", TimeUnix: time.Now().Unix() - 600, Value: 9}},
	}); err != nil {
		t.Fatal(err)
	}
}

// isAPICode reports whether err is a serving APIError with the given code.
func isAPICode(err error, code serving.ErrorCode) bool {
	var apiErr *serving.APIError
	return errors.As(err, &apiErr) && apiErr.Code == code
}

func waitFor(t *testing.T, ok func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testWriter routes server output through the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// TestMain doubles as the entry point for the hard-kill child process: when
// SEAGULL_SERVE_KILL_CHILD names a data directory, this binary runs a real
// server against it (announcing its address on stdout) instead of the test
// suite, so the parent test can SIGKILL an actual process mid-ingest.
func TestMain(m *testing.M) {
	if dir := os.Getenv("SEAGULL_SERVE_KILL_CHILD"); dir != "" {
		runKillChild(dir)
		return
	}
	os.Exit(m.Run())
}

// runKillChild is the sacrificial server: WAL commits every 25ms, snapshots
// effectively never (1h), so recovery after the kill must come from the WAL.
func runKillChild(dataDir string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("SEAGULL_ADDR=%s\n", ln.Addr())
	cfg := serveConfig{
		Deploy:        "backup/rec=pf-prev-day",
		DataDir:       dataDir,
		Drain:         5 * time.Second,
		Timeout:       30 * time.Second,
		Stream:        true,
		Snapshot:      true,
		WALCommit:     25 * time.Millisecond,
		SnapshotEvery: time.Hour,
	}
	if err := serve(context.Background(), cfg, ln, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// TestServeHardKillRecovery is the tentpole's end-to-end proof: a real child
// process is SIGKILLed — no drain, no snapshot, no deferred cleanup — after
// its WAL committed the ingested window, and a restart over the same data
// directory must serve live predictions bit-identical to a process that was
// never killed.
func TestServeHardKillRecovery(t *testing.T) {
	dir := t.TempDir()
	child := exec.Command(os.Args[0])
	child.Env = append(os.Environ(), "SEAGULL_SERVE_KILL_CHILD="+dir)
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			child.Process.Kill()
			child.Wait()
		}
	}()

	// The child announces its ephemeral address as the first stdout line.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "SEAGULL_ADDR="); ok {
				addrCh <- rest
			}
			t.Logf("child: %s", line)
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("child never announced its address")
	}
	c := seagull.NewClient("http://" + addr)
	waitFor(t, func() bool { return c.Healthy() }, "child healthz")

	// One deterministic window, fully ingested into the child.
	start := time.Now().UTC().Add(-3 * 24 * time.Hour).Truncate(5 * time.Minute)
	vals := make([]float64, 2*288)
	for i := range vals {
		vals[i] = 20 + float64(i%13)
	}
	resp, err := c.Ingest(context.Background(), serving.IngestRequest{
		Servers: []serving.IngestSeries{{
			ServerID: "srv-rec", Start: start, IntervalMin: 5, Values: vals,
		}},
	})
	if err != nil || resp.Accepted != len(vals) {
		t.Fatalf("ingest: %v (%+v)", err, resp)
	}

	// Wait for the WAL group commit to cover every ingested point, then pull
	// the rug: SIGKILL, no chance to flush or snapshot.
	waitFor(t, func() bool {
		vz, err := c.Varz(context.Background())
		if err != nil || vz.Durability == nil {
			return false
		}
		return vz.Durability.CommitRecords >= uint64(len(vals)) && vz.Durability.Dropped == 0
	}, "WAL commit to cover the ingested window")
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	killed = true

	// Survivor world: restart over the killed child's data directory.
	c2, shutdown2 := recoveryServe(t, dir)
	defer shutdown2()
	respA, err := livePredict(t, c2)
	if err != nil {
		t.Fatalf("predict from WAL-recovered rings: %v", err)
	}

	// Reference world: same telemetry, never killed.
	c3, shutdown3 := recoveryServe(t, t.TempDir())
	defer shutdown3()
	if _, err := c3.Ingest(context.Background(), serving.IngestRequest{
		Servers: []serving.IngestSeries{{
			ServerID: "srv-rec", Start: start, IntervalMin: 5, Values: vals,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	respB, err := livePredict(t, c3)
	if err != nil {
		t.Fatal(err)
	}

	if respA.Model != respB.Model || respA.Version != respB.Version {
		t.Fatalf("deployment differs: %s v%d vs %s v%d", respA.Model, respA.Version, respB.Model, respB.Version)
	}
	if !respA.Forecast.Start.Equal(respB.Forecast.Start) || len(respA.Forecast.Values) != len(respB.Forecast.Values) {
		t.Fatalf("forecast shape differs: %v/%d vs %v/%d",
			respA.Forecast.Start, len(respA.Forecast.Values), respB.Forecast.Start, len(respB.Forecast.Values))
	}
	for i := range respA.Forecast.Values {
		if respA.Forecast.Values[i] != respB.Forecast.Values[i] {
			t.Fatalf("forecast[%d] = %v vs %v: the kill is observable", i, respA.Forecast.Values[i], respB.Forecast.Values[i])
		}
	}
	if respA.LLStart != respB.LLStart || respA.LLAvg != respB.LLAvg {
		t.Fatalf("LL window (%d, %v) vs (%d, %v)", respA.LLStart, respA.LLAvg, respB.LLStart, respB.LLAvg)
	}
}
