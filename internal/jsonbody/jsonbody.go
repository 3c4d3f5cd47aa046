// Package jsonbody reads a request body once and walks it as JSON, checking
// its syntax as it goes. Both serving tiers use it: the router reads a body's
// routing fields in one pass, and a replica fills its typed requests in one.
// A walk that completes has checked every byte of the body against exactly
// the grammar json.Valid enforces, so neither tier makes a separate
// validating pass.
package jsonbody

import (
	"bytes"
	"errors"
	"net/http"
	"strconv"
)

// maxPresize bounds the buffer a declared Content-Length reserves before any
// body byte arrives. The declaration is the client's word alone: a client
// that declares a large body and then stalls holds no more than this.
const maxPresize = 1 << 20

// Read reads r's body whole, at most limit bytes; past the limit the error
// is the *http.MaxBytesError of http.MaxBytesReader. A declared
// Content-Length sizes the buffer, up to maxPresize, so a body of up to a
// mebibyte is not copied through ever larger buffers as it arrives; a larger
// one grows as its bytes come.
func Read(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var body bytes.Buffer
	if n := r.ContentLength; n > 0 {
		body.Grow(int(min(n, limit, maxPresize)) + bytes.MinRead)
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return body.Bytes(), err
}

// maxDepth is encoding/json's nesting limit: 10,000 levels of objects and
// arrays, counted from the top-level value.
const maxDepth = 10000

// errSyntax is every syntax error a Scanner finds. Callers that report one
// ask encoding/json to name it.
var errSyntax = errors.New("jsonbody: invalid JSON")

// Valid reports whether data is one JSON value with nothing but whitespace
// around it: exactly what json.Valid accepts (FuzzScanValid).
func Valid(data []byte) bool {
	s := NewScanner(data)
	return s.Skip() == nil && s.End() == nil
}

// Scanner walks one JSON document, checking its syntax as it moves. Every
// method that moves past a value returns a non-nil error if the value's
// bytes are not valid JSON; after any error the scanner's position is
// unspecified.
type Scanner struct {
	data  []byte
	off   int
	depth int
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Offset returns the scanner's position in the data.
func (s *Scanner) Offset() int { return s.off }

// Peek skips whitespace and returns the byte at the scanner's position, or 0
// at the end of the data.
func (s *Scanner) Peek() byte {
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

// End checks that nothing but whitespace follows the scanner's position.
func (s *Scanner) End() error {
	if s.Peek(); s.off != len(s.data) {
		return errSyntax
	}
	return nil
}

// Skip moves past the next value.
func (s *Scanner) Skip() error {
	switch s.Peek() {
	case '{':
		return s.Object(nil)
	case '[':
		return s.Array(nil)
	case '"':
		_, _, err := s.Quoted()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, err := s.number()
	return err
}

// Value moves past the next value and returns its bytes.
func (s *Scanner) Value() ([]byte, error) {
	s.Peek()
	start := s.off
	err := s.Skip()
	return s.data[start:s.off], err
}

func (s *Scanner) literal(lit string) error {
	if !bytes.HasPrefix(s.data[s.off:], []byte(lit)) {
		return errSyntax
	}
	s.off += len(lit)
	return nil
}

// Object moves past the object at the scanner's position, handing each
// member to member with its quoted key, whether the key is plain (see
// Quoted) and the offset the member starts at. member must move past the
// value; a nil member skips it.
func (s *Scanner) Object(member func(key []byte, plain bool, start int) error) error {
	return s.container('}', func() error {
		if s.Peek() != '"' {
			return errSyntax
		}
		start := s.off
		key, plain, err := s.Quoted()
		if err != nil {
			return err
		}
		if s.Peek() != ':' {
			return errSyntax
		}
		s.off++
		if member == nil {
			return s.Skip()
		}
		return member(key, plain, start)
	})
}

// Array moves past the array at the scanner's position, calling elem for
// each element; elem must move past it. A nil elem skips it.
func (s *Scanner) Array(elem func() error) error {
	if elem == nil {
		elem = s.Skip
	}
	return s.container(']', elem)
}

// container moves past the object or array opening at the scanner's
// position and closing with end, calling item for each comma-separated
// item.
func (s *Scanner) container(end byte, item func() error) error {
	if s.depth++; s.depth > maxDepth {
		return errSyntax
	}
	s.off++
	if s.Peek() == end {
		s.off++
		s.depth--
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		switch s.Peek() {
		case ',':
			s.off++
		case end:
			s.off++
			s.depth--
			return nil
		default:
			return errSyntax
		}
	}
}

// plainByte marks the bytes a string may hold as they are and still be
// read without unquoting: printable ASCII other than '"' and '\'.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Quoted moves past the string at the scanner's position and returns its
// bytes, quotes included. It reports whether the string is plain — no
// escape and no byte outside ASCII — so that its content is the bytes
// between the quotes. Like json.Valid it refuses control characters and
// malformed escapes, and accepts any other byte, valid UTF-8 or not.
func (s *Scanner) Quoted() (raw []byte, plain bool, err error) {
	d, i := s.data, s.off+1
	plain = true
	for {
		for i < len(d) && plainByte[d[i]] {
			i++
		}
		if i == len(d) {
			return nil, false, errSyntax
		}
		switch c := d[i]; {
		case c == '"':
			raw, s.off = d[s.off:i+1], i+1
			return raw, plain, nil
		case c == '\\':
			plain = false
			if i++; i == len(d) {
				return nil, false, errSyntax
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if i+4 >= len(d) || !isHex(d[i+1]) || !isHex(d[i+2]) || !isHex(d[i+3]) || !isHex(d[i+4]) {
					return nil, false, errSyntax
				}
				i += 5
			default:
				return nil, false, errSyntax
			}
		case c < ' ':
			return nil, false, errSyntax
		default: // a byte of a multi-byte sequence
			plain = false
			i++
		}
	}
}

func isHex(c byte) bool { return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits moves i past a run of digits in d.
func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// number moves past the number at the scanner's position and returns its
// bytes. It checks JSON's number grammar: an optional minus, an integer
// part without leading zeros, then an optional fraction and exponent.
func (s *Scanner) number() ([]byte, error) {
	d, i := s.data, s.off
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i == len(d):
		return nil, errSyntax
	case d[i] == '0':
		i++
	case '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return nil, errSyntax
	}
	if i < len(d) && d[i] == '.' {
		if i++; i == len(d) || !isDigit(d[i]) {
			return nil, errSyntax
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || !isDigit(d[i]) {
			return nil, errSyntax
		}
		i = digits(d, i)
	}
	num := d[s.off:i]
	s.off = i
	return num, nil
}

// Floats moves past the array of numbers at the scanner's position,
// appending each element to dst[:0] with one strconv.ParseFloat, the call
// encoding/json makes per number. Any other value — null, a non-number
// element, a number out of float64's range — is an error, after which at
// most the elements of dst before the failing one have been written.
func (s *Scanner) Floats(dst []float64) ([]float64, error) {
	if s.Peek() != '[' {
		return nil, errNotFloats
	}
	end := bytes.IndexByte(s.data[s.off:], ']')
	if end < 0 {
		return nil, errSyntax
	}
	out := dst[:0]
	if n := bytes.Count(s.data[s.off:s.off+end], []byte{','}) + 1; cap(out) < n {
		out = make([]float64, 0, n)
	}
	err := s.Array(func() error {
		s.Peek()
		num, err := s.number() // refuses a value that is not a number
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return errNotFloats
		}
		out = append(out, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

var errNotFloats = errors.New("jsonbody: not an array of float64s")
