package jsonbody

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"sync"
	"time"
)

// Walker is a struct the walk fills. WalkJSON fills the zero value its
// receiver points to from the object at the scanner, as encoding/json would,
// or returns an error; its body is one Fields call.
type Walker interface {
	WalkJSON(s *Scanner) error
}

// Unmarshal is json.Unmarshal of data into v. A Walker whose value is zero is
// filled by one walk that checks data's syntax and parses each number as it
// goes. Everything else goes to json.Unmarshal of the whole of data into v as
// it was passed: a destination that is not a zero Walker, any shape the walk
// does not fill (a string or key that is escaped or not ASCII, a repeated
// member, a number that is not within float64's range or not an integer
// where one is due) and any error. So values and errors are always
// encoding/json's (FuzzWireDecode, FuzzStoredDecode).
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if w, ok := v.(Walker); ok && rv.Kind() == reflect.Pointer && !rv.IsNil() && rv.Elem().IsZero() {
		s := scanners.Get().(*Scanner)
		*s = NewScanner(data)
		walked := walk(s, w) == nil && s.End() == nil
		*s = Scanner{}
		scanners.Put(s)
		if walked {
			return nil
		}
		rv.Elem().SetZero()
	}
	return json.Unmarshal(data, v)
}

// scanners holds the Scanners Unmarshal walks with: a Scanner handed to
// WalkJSON, an interface method, escapes, and is reused rather than allocated.
var scanners = sync.Pool{New: func() any { return new(Scanner) }}

// errUnwalked reports a value the walk leaves to encoding/json.
var errUnwalked = errors.New("jsonbody: value left to encoding/json")

// walk fills the zero value dst points to from the value at the scanner, as
// encoding/json would, or returns an error. null leaves dst as it is: for
// every type here, encoding/json's null leaves a zero value zero.
func walk(s *Scanner, dst any) error {
	c := s.Peek()
	if c == 'n' {
		return s.Skip()
	}
	switch p := dst.(type) {
	case *[]float64:
		vals, err := s.Floats(nil)
		*p = vals
		return err
	case *float64:
		v, err := s.Float() // refuses a value that is not a number
		*p = v
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
	case Walker: // last, so that a leaf is not checked against an interface first
		return p.WalkJSON(s)
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

// walkerPtr is a pointer to a T that is a Walker.
type walkerPtr[T any] interface {
	*T
	Walker
}

// Slice returns the Walker that fills the nil slice p points to from an
// array, one element at a time.
func Slice[T any, PT walkerPtr[T]](p *[]T) Walker { return slice[T, PT]{p} }

type slice[T any, PT walkerPtr[T]] struct{ p *[]T }

func (w slice[T, PT]) WalkJSON(s *Scanner) error {
	if s.Peek() != '[' {
		return errUnwalked
	}
	*w.p = []T{} // encoding/json's [] is empty, not nil
	return s.Array(func() error {
		*w.p = append(*w.p, *new(T))
		return walk(s, PT(&(*w.p)[len(*w.p)-1]))
	})
}

// Fields moves past the object at the scanner into a struct whose JSON field
// names are names, filling fields[i] from the member named names[i]; each of
// fields is a *string, *bool, *int, *int64, *float64, *[]float64, *time.Time
// or Walker. Unknown members are skipped unconverted. A key that is not
// plain ASCII, or that names a field already filled, is left to
// encoding/json: its matching rules and its merging of repeated members are
// its own.
func (s *Scanner) Fields(names []string, fields ...any) error {
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
