package obs

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ExpoContentType is the Prometheus text exposition content type served by
// /metrics.
const ExpoContentType = "text/plain; version=0.0.4; charset=utf-8"

// Expo renders the Prometheus text exposition format (version 0.0.4) with the
// standard library only. Its one entry point is Struct: a metric is declared
// once, as a struct tag beside the stats field it reads, and every /metrics
// page is "snapshot the document, hand it to Struct". The page is built in
// memory — strings and numbers are appended, never formatted into
// intermediates — and written once by Flush.
type Expo struct {
	w   io.Writer
	buf []byte
}

// NewExpo renders into w. Call Flush when done.
func NewExpo(w io.Writer) *Expo { return &Expo{w: w} }

// Flush writes the rendered page and returns the write error, if any.
func (e *Expo) Flush() error {
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

func (e *Expo) writeString(s string) { e.buf = append(e.buf, s...) }

func (e *Expo) writeValue(v float64) { e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64) }

// Struct renders every metric a stats document declares. doc is a struct or
// a pointer to one (a nil pointer renders nothing); the walk follows three
// struct tags:
//
//   - metric:"<kind> <name> <help text>" on a bool, integer, float, string
//     or slice field emits one family of kind counter or gauge with that
//     field's value (bool: 0/1; string: 1 when non-empty; slice: its length),
//     divided by the optional div:"<n>" tag when the field's unit is not the
//     metric's. On an embedded LatencyHist the kind is histogram.
//   - label:"<key>" on a map[string]struct field emits each of the element
//     type's own tagged fields as one family with a sample per map key, keys
//     sorted, labelled <key>="<map key>". Empty maps emit nothing.
//   - untagged struct and *struct fields are descended into, nil pointers
//     skipped, so an absent /varz section is an absent metric section.
//
// Families appear in field order. The tag walk is computed once per type.
func (e *Expo) Struct(doc any) {
	e.walk(reflect.ValueOf(doc))
}

func (e *Expo) walk(v reflect.Value) {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	for _, st := range planFor(v.Type()) {
		f := v.Field(st.index)
		switch st.kind {
		case stepNested:
			e.walk(f)
		case stepLabelled:
			e.labelled(st, f)
		default:
			e.writeString(st.header)
			e.field(st, "", f)
		}
	}
}

// labelled renders one label-keyed map: a family per tagged element field, a
// sample per key.
func (e *Expo) labelled(st step, m reflect.Value) {
	if m.Len() == 0 {
		return
	}
	type entry struct {
		labels string // rendered once, reused by every family
		elem   reflect.Value
	}
	entries := make([]entry, 0, m.Len())
	for it := m.MapRange(); it.Next(); {
		labels := "{" + st.label + `="` + labelEscaper.Replace(it.Key().String()) + `"}`
		entries = append(entries, entry{labels, it.Value()})
	}
	// Stable scrapes: the label key is a constant prefix, so this is key order.
	sort.Slice(entries, func(i, j int) bool { return entries[i].labels < entries[j].labels })
	for _, sub := range st.elem {
		e.writeString(sub.header)
		for _, en := range entries {
			e.field(sub, en.labels, en.elem.Field(sub.index))
		}
	}
}

// field emits one tagged field's samples under a pre-rendered label set.
func (e *Expo) field(st step, labels string, f reflect.Value) {
	if st.kind == stepHist {
		h := f.Interface().(LatencyHist)
		e.histogram(st.name, labels, &h)
		return
	}
	var v float64
	switch f.Kind() {
	case reflect.Bool:
		if f.Bool() {
			v = 1
		}
	case reflect.String:
		if f.Len() > 0 {
			v = 1
		}
	case reflect.Slice:
		v = float64(f.Len())
	case reflect.Float32, reflect.Float64:
		v = f.Float()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v = float64(f.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v = float64(f.Int())
	default:
		panic(fmt.Sprintf("obs: metric %s on a %s field", st.name, f.Kind()))
	}
	if st.div != 0 {
		v /= st.div
	}
	e.sample(st.name, "", labels, v)
}

func (e *Expo) sample(name, suffix, labels string, v float64) {
	e.writeString(name)
	e.writeString(suffix)
	e.writeString(labels)
	e.writeString(" ")
	e.writeValue(v)
	e.writeString("\n")
}

// histogram emits one labeled histogram series from the /varz layout
// (per-bucket millisecond counts with a trailing overflow entry): cumulative
// seconds-valued <name>_bucket lines for each bound plus +Inf, then
// <name>_sum and <name>_count.
func (e *Expo) histogram(name, labels string, h *LatencyHist) {
	open := `{le="`
	if labels != "" {
		open = labels[:len(labels)-1] + `,le="`
	}
	cum := uint64(0)
	for i, n := range h.LatencyCounts {
		cum += n
		e.writeString(name)
		e.writeString("_bucket")
		e.writeString(open)
		if i < len(h.LatencyMsBounds) {
			e.writeValue(h.LatencyMsBounds[i] / 1000)
		} else {
			e.writeString("+Inf") // the trailing overflow entry
		}
		e.writeString(`"} `)
		e.writeValue(float64(cum))
		e.writeString("\n")
	}
	e.sample(name, "_sum", labels, h.LatencyMsSum/1000)
	e.sample(name, "_count", labels, float64(cum))
}

type stepKind uint8

const (
	stepSample stepKind = iota
	stepHist
	stepNested
	stepLabelled
)

// step is one field of a type's cached walk plan.
type step struct {
	index  int
	kind   stepKind
	name   string  // family name (sample, hist)
	header string  // pre-rendered # HELP + # TYPE lines (sample, hist)
	div    float64 // value divisor, 0 for none (sample)
	label  string  // label key (labelled)
	elem   []step  // the map element's sample/hist steps (labelled)
}

var plans sync.Map // reflect.Type → []step

// planFor returns the cached walk plan of struct type t. Malformed tags are
// programming errors and panic on first render.
func planFor(t reflect.Type) []step {
	if p, ok := plans.Load(t); ok {
		return p.([]step)
	}
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: Expo.Struct over non-struct %s", t))
	}
	var plan []step
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		st := step{index: i}
		ft := f.Type
		if tag, ok := f.Tag.Lookup("metric"); ok {
			parts := strings.SplitN(tag, " ", 3)
			if len(parts) != 3 {
				panic(fmt.Sprintf("obs: %s.%s: metric tag %q is not \"kind name help\"", t, f.Name, tag))
			}
			kind := parts[0]
			st.name = parts[1]
			st.header = "# HELP " + st.name + " " + helpEscaper.Replace(parts[2]) + "\n# TYPE " + st.name + " " + kind + "\n"
			switch {
			case kind == "histogram" && ft == reflect.TypeOf(LatencyHist{}):
				st.kind = stepHist
			case kind == "counter" || kind == "gauge":
				// a scalar; field rejects kinds it cannot convert
			default:
				panic(fmt.Sprintf("obs: %s.%s: metric kind %q does not fit field type %s", t, f.Name, kind, ft))
			}
			if d := f.Tag.Get("div"); d != "" {
				var err error
				if st.div, err = strconv.ParseFloat(d, 64); err != nil || st.div == 0 {
					panic(fmt.Sprintf("obs: %s.%s: bad div tag %q", t, f.Name, d))
				}
			}
			plan = append(plan, st)
			continue
		}
		if label, ok := f.Tag.Lookup("label"); ok {
			if ft.Kind() != reflect.Map || ft.Key().Kind() != reflect.String || ft.Elem().Kind() != reflect.Struct {
				panic(fmt.Sprintf("obs: %s.%s: label tag on %s, want map[string]struct", t, f.Name, ft))
			}
			st.kind, st.label = stepLabelled, label
			for _, sub := range planFor(ft.Elem()) {
				if sub.kind == stepSample || sub.kind == stepHist {
					st.elem = append(st.elem, sub)
				}
			}
			plan = append(plan, st)
			continue
		}
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct && len(planFor(ft)) > 0 {
			st.kind = stepNested
			plan = append(plan, st)
		}
	}
	plans.Store(t, plan)
	return plan
}

// The exposition format's escapes: backslash, double quote and newline in a
// label value; backslash and newline in HELP text.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)
