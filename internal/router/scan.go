package router

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// This file holds the one pass the traffic routes make over a request body.
// It reads only what routing needs: predict's server_id and live_history,
// the byte range and server_id of every item of a batch's or an ingest's
// split arrays, whether an ingest carries a sweep, and the top-level members
// that are not split. Nothing else is decoded; the items' bytes go to their
// owners as the client sent them. json.Valid checks the body first, so the
// scan runs over JSON known to be well formed: the only errors it finds are
// routing fields of the wrong type.

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
	if !json.Valid(body) {
		// encoding/json names the syntax error.
		return nil, json.Unmarshal(body, new(struct{}))
	}
	s := scanner{data: body}
	out := &scanned{}
	var err error
	switch s.next() {
	case '{':
		err = s.object(func(key []byte, plain bool, start int) error {
			return out.member(&s, r, key, plain, start)
		})
	case 'n': // null decodes as an empty object
	default:
		err = s.typeError("request body", "an object")
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// member scans the value of one top-level member whose key starts at start.
func (sc *scanned) member(s *scanner, r route, key []byte, plain bool, start int) error {
	switch match(key, plain, routeFields[r]) {
	case fieldServerID:
		return s.stringInto(&sc.serverID, "server_id")
	case fieldLiveHistory:
		switch s.next() {
		case 't':
			sc.liveHistory = true
		case 'f':
			sc.liveHistory = false
		case 'n':
		default:
			return s.typeError("live_history", "a boolean")
		}
		s.skip()
		return nil
	case fieldServers:
		return s.items(&sc.servers, "servers")
	case fieldPoints:
		return s.items(&sc.points, "points")
	case fieldSweep:
		sc.sweep = s.next() != 'n'
	}
	s.skip()
	if r != predictRoute {
		sc.members = append(sc.members, span{start, s.off})
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
			return fieldNone // unreachable: the body is valid
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
func (s *scanner) items(l *itemList, name string) error {
	switch s.next() {
	case 'n':
		l.spans, l.ids = nil, nil
		s.skip()
		return nil
	case '[':
	default:
		return s.typeError(name, "an array")
	}
	l.spans, l.ids = l.spans[:0], l.ids[:0]
	s.off++
	for s.next() != ']' {
		var id string
		start := s.off
		switch s.data[start] {
		case '{':
			err := s.object(func(key []byte, plain bool, _ int) error {
				if match(key, plain, itemFields) == fieldServerID {
					return s.stringInto(&id, "server_id")
				}
				s.skip()
				return nil
			})
			if err != nil {
				return err
			}
		case 'n':
			s.skip()
		default:
			return s.typeError(name+" item", "an object")
		}
		l.spans = append(l.spans, span{start, s.off})
		l.ids = append(l.ids, id)
		if s.next() == ',' {
			s.off++
		}
	}
	s.off++
	return nil
}

// scanner walks JSON that json.Valid has accepted.
type scanner struct {
	data []byte
	off  int
}

// next skips whitespace and returns the byte at s.off, or 0 at the end of
// the input.
func (s *scanner) next() byte {
	d, i := s.data, s.off
	for ; i < len(d); i++ {
		switch c := d[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			s.off = i
			return c
		}
	}
	s.off = i
	return 0
}

// skip moves past the next value.
func (s *scanner) skip() {
	switch s.next() {
	case '"':
		s.str()
	case '{', '[':
		// Strings aside, a container ends where its brackets balance.
		d, depth := s.data, 0
		for i := s.off; ; i++ {
			switch d[i] {
			case '"':
				s.off = i
				s.str()
				i = s.off - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					s.off = i + 1
					return
				}
			}
		}
	default: // a number or a literal runs to the next delimiter
		d, i := s.data, s.off
		for i < len(d) && !delimiter[d[i]] {
			i++
		}
		s.off = i
	}
}

// delimiter marks the bytes that can follow a number or a literal.
var delimiter = func() (t [256]bool) {
	for _, c := range ",}] \t\n\r" {
		t[c] = true
	}
	return t
}()

// object scans the object at s.off, handing each member to member with its
// quoted key, whether the key is plain (see str) and the offset the member
// starts at; member must move past the value.
func (s *scanner) object(member func(key []byte, plain bool, start int) error) error {
	s.off++
	for s.next() != '}' {
		start := s.off
		plain := s.str()
		key := s.data[start:s.off]
		s.next() // the ':'
		s.off++
		if err := member(key, plain, start); err != nil {
			return err
		}
		if s.next() == ',' {
			s.off++
		}
	}
	s.off++
	return nil
}

// plainByte marks the bytes a string may hold as they are and still be
// read without unquoting: printable ASCII other than '"' and '\'.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str moves past the string whose opening quote is at s.off. It reports
// whether the string is plain — no escape and no byte outside ASCII — so
// that its content is the bytes between the quotes.
func (s *scanner) str() (plain bool) {
	d, i := s.data, s.off+1
	plain = true
	for {
		for plainByte[d[i]] {
			i++
		}
		switch d[i] {
		case '"':
			s.off = i + 1
			return plain
		case '\\': // the escaped byte is never the closing quote
			plain = false
			i += 2
		default: // a byte of a multi-byte sequence, valid UTF-8 or not
			plain = false
			i++
		}
	}
}

// stringInto scans a value decoded into a string field: a string sets
// *dst, null leaves it, and any other value is a type error.
func (s *scanner) stringInto(dst *string, name string) error {
	switch s.next() {
	case '"':
		start := s.off
		if s.str() {
			*dst = string(s.data[start+1 : s.off-1])
			return nil
		}
		return json.Unmarshal(s.data[start:s.off], dst)
	case 'n':
		s.skip()
		return nil
	}
	return s.typeError(name, "a string")
}

// typeError reports a value of the wrong type for a routing field.
func (s *scanner) typeError(name, want string) error {
	return fmt.Errorf("%s must be %s (offset %d)", name, want, s.off)
}
