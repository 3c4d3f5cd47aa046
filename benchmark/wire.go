package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// The load generator's own view of the v2 protocol: plain net/http and these
// structs, as an external caller (the backup scheduler job, the telemetry
// forwarder) would write them. It deliberately does not use serving.Client.

type seriesJSON struct {
	Start       time.Time `json:"start"`
	IntervalMin int       `json:"interval_min"`
	Values      []float64 `json:"values"`
}

type predictReq struct {
	Scenario     string      `json:"scenario"`
	Region       string      `json:"region"`
	ServerID     string      `json:"server_id"`
	History      *seriesJSON `json:"history,omitempty"`
	Horizon      int         `json:"horizon"`
	WindowPoints int         `json:"window_points"`
	LiveHistory  bool        `json:"live_history,omitempty"`
}

type predictResp struct {
	ServerID string     `json:"server_id"`
	Model    string     `json:"model"`
	Version  int        `json:"version"`
	Forecast seriesJSON `json:"forecast"`
	Degraded bool       `json:"degraded"`
	LLStart  int        `json:"ll_start"`
	LLAvg    float64    `json:"ll_avg"`
}

type batchItem struct {
	ServerID     string     `json:"server_id"`
	History      seriesJSON `json:"history"`
	Horizon      int        `json:"horizon"`
	WindowPoints int        `json:"window_points"`
}

type batchReq struct {
	Scenario string      `json:"scenario"`
	Region   string      `json:"region"`
	Servers  []batchItem `json:"servers"`
}

type batchItemResult struct {
	ServerID string          `json:"server_id"`
	Forecast *seriesJSON     `json:"forecast"`
	LLStart  int             `json:"ll_start"`
	LLAvg    float64         `json:"ll_avg"`
	Error    json.RawMessage `json:"error"`
}

type batchResp struct {
	Model     string            `json:"model"`
	Version   int               `json:"version"`
	Results   []batchItemResult `json:"results"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

type ingestSeries struct {
	ServerID    string    `json:"server_id"`
	Start       time.Time `json:"start"`
	IntervalMin int       `json:"interval_min"`
	Values      []float64 `json:"values"`
}

type ingestPoint struct {
	ServerID string  `json:"server_id"`
	TimeUnix int64   `json:"t_unix"`
	Value    float64 `json:"v"`
}

type ingestReq struct {
	Servers []ingestSeries `json:"servers,omitempty"`
	Points  []ingestPoint  `json:"points,omitempty"`
}

type ingestResp struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
	TooOld     int `json:"too_old"`
	TooNew     int `json:"too_new"`
	BadValues  int `json:"bad_values"`
	Skipped    int `json:"skipped"`
}

// Span context travels between the benchmark's own wrappers in these two
// headers; the program under test never reads them.
const (
	hdrCall   = "X-Bench-Call"
	hdrParent = "X-Bench-Parent"
)

// wireClient is one closed-loop caller: one keep-alive connection, the next
// request only after the previous reply.
type wireClient struct {
	hc   *http.Client
	base string
	body bytes.Buffer // reply scratch, reused across calls
}

func newWireClient(base string) *wireClient {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
	}
	return &wireClient{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *wireClient) close() { c.hc.CloseIdleConnections() }

// post sends body to path and decodes a 200 reply into out. A non-200 status
// (a shed 429/503 included) is returned as a statusError.
func (c *wireClient) post(path string, body []byte, call uint64, parent int32, out any) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set(hdrCall, strconv.FormatUint(call, 10))
		req.Header.Set(hdrParent, strconv.Itoa(int(parent)))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return statusError{code: resp.StatusCode, body: truncate(c.body.Bytes(), 200)}
	}
	return json.Unmarshal(c.body.Bytes(), out)
}

type statusError struct {
	code int
	body string
}

func (e statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// shed reports whether err is an admission shed (429 or 503).
func shed(err error) bool {
	se, ok := err.(statusError)
	return ok && (se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable)
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
