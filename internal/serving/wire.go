package serving

import (
	"fmt"
	"net/http"
	"time"

	"seagull/internal/modelpool"
	"seagull/internal/pipeline"
)

// The v2 wire protocol. Every v2 error response is a structured envelope
//
//	{"error": {"code": "<machine-readable>", "message": "<human-readable>"}}
//
// so clients can branch on the code without parsing prose.

// ErrorCode is a machine-readable v2 error class.
type ErrorCode string

// v2 error codes.
const (
	CodeBadRequest  ErrorCode = "bad_request"       // malformed JSON or invalid fields
	CodeNotFound    ErrorCode = "not_found"         // no deployment / stored document
	CodeUntrainable ErrorCode = "untrainable"       // history cannot support the model
	CodeTooLarge    ErrorCode = "too_large"         // body or batch beyond the limits
	CodeCanceled    ErrorCode = "canceled"          // caller went away mid-request
	CodeDeadline    ErrorCode = "deadline_exceeded" // request exceeded its deadline
	CodeInternal    ErrorCode = "internal"          // unexpected server-side failure
	// CodeOverloaded: admission control shed the request (503, or 429 for
	// ingest). The response carries Retry-After with the limiter's computed
	// backoff; retrying before it elapses only deepens the overload.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeInsufficientHistory: a live_history predict found the server's
	// window thinner than the configured floor — typically right after a
	// cold start (failed restore), when silently forecasting from a sliver
	// of telemetry would be worse than failing loudly.
	CodeInsufficientHistory ErrorCode = "insufficient_history"
)

// ErrorBody is the structured payload inside a v2 error envelope, and the
// per-item error of a batch response.
type ErrorBody struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// errorEnvelope is the v2 error response wrapper.
type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ServiceError is a service failure with its wire representation: the v2
// code, the HTTP status, the human-readable message and, for retryable
// overloads, the Retry-After hint.
type ServiceError struct {
	Code       ErrorCode
	Status     int
	Message    string
	RetryAfter time.Duration
}

// Error implements error.
func (e *ServiceError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func svcErr(code ErrorCode, status int, format string, args ...any) *ServiceError {
	return &ServiceError{Code: code, Status: status, Message: fmt.Sprintf(format, args...)}
}

func badRequest(format string, args ...any) *ServiceError {
	return svcErr(CodeBadRequest, http.StatusBadRequest, format, args...)
}

// PredictRequestV2 asks the deployed model of one (scenario, region) to
// forecast `horizon` observations following the supplied history.
type PredictRequestV2 struct {
	Scenario string     `json:"scenario"`
	Region   string     `json:"region"`
	ServerID string     `json:"server_id,omitempty"` // echoed back; useful for correlation
	History  SeriesJSON `json:"history"`
	Horizon  int        `json:"horizon"`
	// WindowPoints, when positive, additionally computes the lowest-load
	// window of that length over the forecast (Definition 7) — the quantity
	// the backup scheduler consumes — so clients need not recompute it.
	WindowPoints int `json:"window_points,omitempty"`
	// LiveHistory asks the server to source the training history from the
	// attached stream ingestor's live window for ServerID instead of a
	// client-supplied History (the two are mutually exclusive). Clients that
	// already stream telemetry through /v2/ingest need not re-upload it to
	// predict, and the response is identical whether the window was fed
	// continuously or restored from a ring snapshot after a restart.
	LiveHistory bool `json:"live_history,omitempty"`
}

// PredictResponseV2 carries the forecast, the serving model's identity, and
// the optional lowest-load window.
type PredictResponseV2 struct {
	ServerID string     `json:"server_id,omitempty"`
	Model    string     `json:"model"`
	Version  int        `json:"version"`
	Forecast SeriesJSON `json:"forecast"`
	// Pooled reports whether a warm model instance served the request.
	Pooled bool `json:"pooled"`
	// Degraded marks a brownout response: the limiter was saturated and the
	// forecast came from the cheap persistent previous-day model instead of
	// the deployed one (Model names it). Accuracy traded for availability.
	Degraded bool `json:"degraded,omitempty"`
	// LLStart/LLAvg describe the lowest-load window when WindowPoints was
	// requested; LLStart is -1 otherwise.
	LLStart int     `json:"ll_start"`
	LLAvg   float64 `json:"ll_avg"`
}

// BatchItem is one server's work inside a batch predict call.
type BatchItem struct {
	ServerID     string     `json:"server_id"`
	History      SeriesJSON `json:"history"`
	Horizon      int        `json:"horizon"`
	WindowPoints int        `json:"window_points,omitempty"`
	// DeadlineMS, when positive, bounds this item's train+forecast to a
	// deadline that many milliseconds after the batch started; a late item
	// fails alone with a deadline_exceeded code instead of cancelling the
	// whole batch. Zero means only the request deadline applies.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// BatchRequest predicts many servers of one (scenario, region) in a single
// call. The service fans the items across its worker pool, with one warm
// model per worker.
type BatchRequest struct {
	Scenario string      `json:"scenario"`
	Region   string      `json:"region"`
	Servers  []BatchItem `json:"servers"`
}

// BatchItemResult is one server's outcome: either a forecast or an error.
type BatchItemResult struct {
	ServerID string      `json:"server_id"`
	Forecast *SeriesJSON `json:"forecast,omitempty"`
	LLStart  int         `json:"ll_start"`
	LLAvg    float64     `json:"ll_avg"`
	Error    *ErrorBody  `json:"error,omitempty"`
}

// BatchResponse carries per-item outcomes in request order plus the serving
// model's identity.
type BatchResponse struct {
	Model     string            `json:"model"`
	Version   int               `json:"version"`
	Results   []BatchItemResult `json:"results"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// AdviseRequest reviews a customer-selected backup window against the
// predicted lowest-load window (Section 6.2, scheduler.AdviseWindow).
type AdviseRequest struct {
	PredictedDay  SeriesJSON `json:"predicted_day"`
	CustomerStart int        `json:"customer_start"`
	WindowPoints  int        `json:"window_points"`
}

// AdviseResponse mirrors scheduler.Advice on the wire.
type AdviseResponse struct {
	KeepCurrent    bool    `json:"keep_current"`
	SuggestedStart int     `json:"suggested_start"`
	CurrentAvg     float64 `json:"current_avg"`
	SuggestedAvg   float64 `json:"suggested_avg"`
}

// ModelsResponseV2 is the v2 deployment listing with pool effectiveness.
type ModelsResponseV2 struct {
	Models []ModelInfo     `json:"models"`
	Pool   modelpool.Stats `json:"pool"`
}

// PredictionsResponse returns the stored PredictionDocs of one pipeline run
// (region, week) from the document store.
type PredictionsResponse struct {
	Region      string                    `json:"region"`
	Week        int                       `json:"week"`
	Predictions []*pipeline.PredictionDoc `json:"predictions"`
}
