package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"seagull/internal/jsonbody"
)

// DecodeRequest reads r's body once, at most MaxBodyBytes, and decodes it as
// exactly one JSON value into v, which must be a zero value: a body with
// trailing data is refused, as json.Unmarshal refuses it. Every route of the
// service decodes with it. A body over the limit answers 413 even when its
// first bytes are not JSON, because the body is read whole before any of it
// is decoded; the router answers such a body the same way.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) *ServiceError {
	body, err := jsonbody.Read(w, r, maxBodyBytes)
	if err == nil {
		err = unmarshal(body, v)
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

// unmarshal is json.Unmarshal of body into the zero value v. A predict or a
// batch, the requests that carry histories, is filled by one walk that
// checks the body's syntax and parses each values array as it goes. Any
// shape the walk does not fill (a string or key that is escaped or not
// ASCII, a repeated member, a values element that is not a number within
// float64's range) and any error go to json.Unmarshal of the whole body into
// a fresh value, so values and errors are always encoding/json's
// (FuzzWireDecode).
func unmarshal(body []byte, v any) error {
	switch v.(type) {
	case *PredictRequestV2, *BatchRequest:
		s := jsonbody.NewScanner(body)
		if walk(&s, v) == nil && s.End() == nil {
			return nil
		}
		reflect.ValueOf(v).Elem().SetZero()
	}
	return json.Unmarshal(body, v)
}

// errUnwalked reports a value the walk leaves to encoding/json.
var errUnwalked = errors.New("serving: value left to encoding/json")

// The JSON names of the fields walk fills, in the order walk lists them.
var (
	predictFields = []string{"scenario", "region", "server_id", "history", "horizon", "window_points", "live_history"}
	batchFields   = []string{"scenario", "region", "servers"}
	itemFields    = []string{"server_id", "history", "horizon", "window_points", "deadline_ms"}
	seriesFields  = []string{"start", "interval_min", "values"}
)

// walk fills the zero value dst points to from the value at the scanner, as
// encoding/json would, or returns an error. null leaves dst as it is: for
// every type here, encoding/json's null leaves a zero value zero.
func walk(s *jsonbody.Scanner, dst any) error {
	c := s.Peek()
	if c == 'n' {
		return s.Skip()
	}
	switch p := dst.(type) {
	case *PredictRequestV2:
		return walkObject(s, predictFields, &p.Scenario, &p.Region, &p.ServerID, &p.History, &p.Horizon, &p.WindowPoints, &p.LiveHistory)
	case *BatchRequest:
		return walkObject(s, batchFields, &p.Scenario, &p.Region, &p.Servers)
	case *BatchItem:
		return walkObject(s, itemFields, &p.ServerID, &p.History, &p.Horizon, &p.WindowPoints, &p.DeadlineMS)
	case *SeriesJSON:
		return walkObject(s, seriesFields, &p.Start, &p.IntervalMin, &p.Values)
	case *[]BatchItem:
		if c != '[' {
			return errUnwalked
		}
		*p = []BatchItem{} // encoding/json's [] is empty, not nil
		return s.Array(func() error {
			*p = append(*p, BatchItem{})
			return walk(s, &(*p)[len(*p)-1])
		})
	case *Floats:
		vals, err := s.Floats(nil)
		*p = vals
		return err
	case *string:
		if c != '"' {
			return errUnwalked
		}
		raw, plain, err := s.Quoted()
		if err != nil || !plain {
			return errUnwalked
		}
		*p = string(raw[1 : len(raw)-1])
		return nil
	case *bool:
		if c != 't' && c != 'f' {
			return errUnwalked
		}
		*p = c == 't'
		return s.Skip()
	}
	raw, err := s.Value()
	if err != nil {
		return err
	}
	switch p := dst.(type) {
	case *time.Time:
		return p.UnmarshalJSON(raw) // encoding/json hands it the value's bytes, whatever they are
	case *int:
		n, err := strconv.ParseInt(string(raw), 10, strconv.IntSize)
		*p = int(n)
		return err
	case *int64:
		n, err := strconv.ParseInt(string(raw), 10, 64)
		*p = n
		return err
	}
	return errUnwalked
}

// walkObject walks the object at the scanner into a struct whose JSON field
// names are names, filling fields[i] from the member named names[i].
// Unknown members are skipped. A key that is not plain ASCII, or that names
// a field already filled, is left to encoding/json: its matching rules and
// its merging of repeated members are its own.
func walkObject(s *jsonbody.Scanner, names []string, fields ...any) error {
	if s.Peek() != '{' {
		return errUnwalked
	}
	var seen uint64
	return s.Object(func(key []byte, plain bool, _ int) error {
		if !plain {
			return errUnwalked
		}
		for i, name := range names {
			if bytes.EqualFold(key[1:len(key)-1], []byte(name)) {
				if seen&(1<<i) != 0 {
					return errUnwalked
				}
				seen |= 1 << i
				return walk(s, fields[i])
			}
		}
		return s.Skip()
	})
}
