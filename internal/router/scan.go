package router

import (
	"bytes"
	"encoding/json"
	"fmt"

	"seagull/internal/jsonbody"
)

// This file holds the one pass the traffic routes make over a request body.
// It reads only what routing needs: predict's server_id and live_history,
// the byte range and server_id of every item of a batch's or an ingest's
// split arrays, whether an ingest carries a sweep, and the top-level members
// that are not split. Nothing else is decoded; the items' bytes go to their
// owners as the client sent them. The scan checks the body's syntax as it
// walks (jsonbody.Scanner), so a body is read in this one pass. When it
// fails, the reply is today's: a syntax error anywhere in the body wins over
// a routing field of the wrong type, and encoding/json names it.

// route names the routing struct a scan stands in for. A scan fails exactly
// when json.Unmarshal of the body into that struct fails, and reads the same
// fields, with one exception: an item's server_id is what the item's own
// bytes say. encoding/json, given a split-array key twice, would let an item
// of the last array inherit fields from the same index of an earlier one;
// those bytes are not what the owner receives (FuzzRouteScan).
//
//	predict: struct{ ServerID string; LiveHistory bool }
//	batch:   struct{ Servers []struct{ ServerID string } }
//	ingest:  struct{ Servers, Points []struct{ ServerID string }; Sweep json.RawMessage }
type route uint8

const (
	predictRoute route = iota
	batchRoute
	ingestRoute
)

// field is a member a route reads.
type field uint8

const (
	fieldNone field = iota
	fieldServerID
	fieldLiveHistory
	fieldServers
	fieldPoints
	fieldSweep
)

var fieldKeys = [...][]byte{
	fieldServerID:    []byte("server_id"),
	fieldLiveHistory: []byte("live_history"),
	fieldServers:     []byte("servers"),
	fieldPoints:      []byte("points"),
	fieldSweep:       []byte("sweep"),
}

// routeFields lists the top-level fields of each route's struct.
var routeFields = [...][]field{
	predictRoute: {fieldServerID, fieldLiveHistory},
	batchRoute:   {fieldServers},
	ingestRoute:  {fieldServers, fieldPoints, fieldSweep},
}

// itemFields lists the fields of a split array's items.
var itemFields = []field{fieldServerID}

// span is the byte range [start, end) of a value or member in the body.
type span struct{ start, end int }

// itemList is one split array: each item's bytes and server_id, in request
// order.
type itemList struct {
	spans []span
	ids   []string
}

// scanned is what a route reads of a body.
type scanned struct {
	serverID    string // predict
	liveHistory bool   // predict
	servers     itemList
	points      itemList // ingest
	sweep       bool     // ingest: the last sweep member is not null
	members     []span   // batch, ingest: the top-level members not split, in order
}

// scanBody makes the one pass over body for route r.
func scanBody(body []byte, r route) (*scanned, error) {
	s := jsonbody.NewScanner(body)
	out := &scanned{}
	var err error
	switch s.Peek() {
	case '{':
		err = s.Object(func(key []byte, plain bool, start int) error {
			return out.member(&s, r, key, plain, start)
		})
	case 'n': // null decodes as an empty object
		err = s.Skip()
	default:
		err = typeError(&s, "request body", "an object")
	}
	if err == nil {
		err = s.End()
	}
	if err != nil {
		if !json.Valid(body) {
			// encoding/json names the syntax error.
			return nil, json.Unmarshal(body, new(struct{}))
		}
		return nil, err
	}
	return out, nil
}

// member scans the value of one top-level member whose key starts at start.
func (sc *scanned) member(s *jsonbody.Scanner, r route, key []byte, plain bool, start int) error {
	switch match(key, plain, routeFields[r]) {
	case fieldServerID:
		return stringInto(s, &sc.serverID, "server_id")
	case fieldLiveHistory:
		switch s.Peek() {
		case 't':
			sc.liveHistory = true
		case 'f':
			sc.liveHistory = false
		case 'n':
		default:
			return typeError(s, "live_history", "a boolean")
		}
		return s.Skip()
	case fieldServers:
		return items(s, &sc.servers, "servers")
	case fieldPoints:
		return items(s, &sc.points, "points")
	case fieldSweep:
		sc.sweep = s.Peek() != 'n'
	}
	if err := s.Skip(); err != nil {
		return err
	}
	if r != predictRoute {
		sc.members = append(sc.members, span{start, s.Offset()})
	}
	return nil
}

// subBody is one owner's request: the top-level members not split, verbatim
// and in order, then one "servers" and one "points" array holding the
// owner's items (by index into sc.servers and sc.points) in request order.
// An array the owner has no items of is left out.
func (sc *scanned) subBody(body []byte, servers, points []int) json.RawMessage {
	n := len(`{,"servers":[],"points":[]}`)
	for _, m := range sc.members {
		n += m.end - m.start + 1
	}
	for _, i := range servers {
		n += sc.servers.spans[i].end - sc.servers.spans[i].start + 1
	}
	for _, i := range points {
		n += sc.points.spans[i].end - sc.points.spans[i].start + 1
	}
	b := append(make([]byte, 0, n), '{')
	for _, m := range sc.members {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(b, body[m.start:m.end]...)
	}
	b = appendItems(b, body, "servers", sc.servers.spans, servers)
	b = appendItems(b, body, "points", sc.points.spans, points)
	return append(b, '}')
}

func appendItems(b, body []byte, key string, spans []span, idxs []int) []byte {
	if len(idxs) == 0 {
		return b
	}
	if len(b) > 1 {
		b = append(b, ',')
	}
	b = append(append(append(b, '"'), key...), `":[`...)
	for j, i := range idxs {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, body[spans[i].start:spans[i].end]...)
	}
	return append(b, ']')
}

// match returns which of fields the quoted key names, as encoding/json
// matches a key to a struct field: after unescaping, case-insensitively
// under Unicode case folding (so "SERVER_ID" and "ſerver_id" both name
// server_id).
func match(key []byte, plain bool, fields []field) field {
	if !plain {
		var k string
		if json.Unmarshal(key, &k) != nil {
			return fieldNone // unreachable: the scanner checked the key
		}
		key = []byte(k)
	} else {
		key = key[1 : len(key)-1]
	}
	for _, f := range fields {
		if want := fieldKeys[f]; (!plain || len(key) == len(want)) && bytes.EqualFold(key, want) {
			return f
		}
	}
	return fieldNone
}

// items scans the value of a split array member into l. Like a slice field,
// null empties it, a repeated key replaces it, and every item must be an
// object or null (an item with no server_id).
func items(s *jsonbody.Scanner, l *itemList, name string) error {
	switch s.Peek() {
	case 'n':
		l.spans, l.ids = nil, nil
		return s.Skip()
	case '[':
	default:
		return typeError(s, name, "an array")
	}
	l.spans, l.ids = l.spans[:0], l.ids[:0]
	return s.Array(func() error {
		var id string
		var err error
		c := s.Peek()
		start := s.Offset()
		switch c {
		case '{':
			err = s.Object(func(key []byte, plain bool, _ int) error {
				if match(key, plain, itemFields) == fieldServerID {
					return stringInto(s, &id, "server_id")
				}
				return s.Skip()
			})
		case 'n':
			err = s.Skip()
		default:
			return typeError(s, name+" item", "an object")
		}
		if err != nil {
			return err
		}
		l.spans = append(l.spans, span{start, s.Offset()})
		l.ids = append(l.ids, id)
		return nil
	})
}

// stringInto scans a value decoded into a string field: a string sets
// *dst, null leaves it, and any other value is a type error.
func stringInto(s *jsonbody.Scanner, dst *string, name string) error {
	switch s.Peek() {
	case '"':
		raw, plain, err := s.Quoted()
		switch {
		case err != nil:
			return err
		case plain:
			*dst = string(raw[1 : len(raw)-1])
			return nil
		}
		return json.Unmarshal(raw, dst)
	case 'n':
		return s.Skip()
	}
	return typeError(s, name, "a string")
}

// typeError reports a value of the wrong type for a routing field.
func typeError(s *jsonbody.Scanner, name, want string) error {
	return fmt.Errorf("%s must be %s (offset %d)", name, want, s.Offset())
}
