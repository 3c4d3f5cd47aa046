package serving

import (
	"errors"
	"net/http"

	"seagull/internal/jsonbody"
)

// DecodeRequest reads r's body once, at most MaxBodyBytes, and decodes it as
// exactly one JSON value into v with jsonbody.Unmarshal: a body with trailing
// data is refused, as json.Unmarshal refuses it. Every route of the
// service decodes with it. A body over the limit answers 413 even when its
// first bytes are not JSON, because the body is read whole before any of it
// is decoded; the router answers such a body the same way.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) *ServiceError {
	body, err := jsonbody.Read(w, r, maxBodyBytes)
	if err == nil {
		err = jsonbody.Unmarshal(body, v)
	}
	if err == nil {
		return nil
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return svcErr(CodeTooLarge, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", maxBodyBytes)
	}
	return badRequest("decode request: %v", err)
}

// The JSON names of the fields each request's WalkJSON fills, in the order
// it lists them.
var (
	predictFields      = []string{"scenario", "region", "server_id", "history", "horizon", "window_points", "live_history"}
	batchFields        = []string{"scenario", "region", "servers"}
	itemFields         = []string{"server_id", "history", "horizon", "window_points", "deadline_ms"}
	seriesFields       = []string{"start", "interval_min", "values"}
	ingestFields       = []string{"servers", "points", "sweep"}
	ingestSeriesFields = []string{"server_id", "start", "interval_min", "values"}
	ingestPointFields  = []string{"server_id", "t_unix", "v"}
	sweepFields        = []string{"region", "week"}
)

// WalkJSON implements jsonbody.Walker: a predict, a batch and an ingest, the
// requests that carry series, are filled by one walk of the body.
func (p *PredictRequestV2) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(predictFields, &p.Scenario, &p.Region, &p.ServerID, &p.History, &p.Horizon, &p.WindowPoints, &p.LiveHistory)
}

func (p *BatchRequest) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(batchFields, &p.Scenario, &p.Region, jsonbody.Slice(&p.Servers))
}

func (p *BatchItem) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(itemFields, &p.ServerID, &p.History, &p.Horizon, &p.WindowPoints, &p.DeadlineMS)
}

func (p *SeriesJSON) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(seriesFields, &p.Start, &p.IntervalMin, (*[]float64)(&p.Values))
}

func (p *IngestRequest) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(ingestFields, jsonbody.Slice(&p.Servers), jsonbody.Slice(&p.Points), sweepField{&p.Sweep})
}

func (p *IngestSeries) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(ingestSeriesFields, &p.ServerID, &p.Start, &p.IntervalMin, (*[]float64)(&p.Values))
}

func (p *IngestPoint) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(ingestPointFields, &p.ServerID, &p.TimeUnix, &p.Value)
}

func (p *SweepSpec) WalkJSON(s *jsonbody.Scanner) error {
	return s.Fields(sweepFields, &p.Region, &p.Week)
}

// sweepField walks a sweep clause into a new SweepSpec.
type sweepField struct{ p **SweepSpec }

func (f sweepField) WalkJSON(s *jsonbody.Scanner) error {
	*f.p = new(SweepSpec)
	return (*f.p).WalkJSON(s)
}
