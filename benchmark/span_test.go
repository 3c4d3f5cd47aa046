package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSelfTimeNestedChildren(t *testing.T) {
	// client 0..100 ⊃ router 10..90 ⊃ serving 30..70
	spans := []span{
		{Name: "client", Call: 1, ID: 1, Parent: 0, Start: 0, End: 100},
		{Name: "router", Call: 1, ID: 2, Parent: 1, Start: 10, End: 90},
		{Name: "serving", Call: 1, ID: 3, Parent: 2, Start: 30, End: 70},
	}
	self := selfTimes(spans)
	if self[1] != 20 || self[2] != 40 || self[3] != 40 {
		t.Errorf("self times = %v, want client 20, router 40, serving 40", self)
	}
	// The identity the budget table rests on.
	if got := self[1] + self[2] + spans[2].dur(); got != spans[0].dur() {
		t.Errorf("net + router self + covered = %d, want the round trip %d", got, spans[0].dur())
	}
}

func TestSelfTimeOverlappingChildrenCountOnce(t *testing.T) {
	// A fan-out: two replica spans overlap for 20 of the router's 100.
	spans := []span{
		{Name: "router", ID: 1, Start: 0, End: 100},
		{Name: "serving", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "serving", ID: 3, Parent: 1, Start: 30, End: 80},
		{Name: "serving", ID: 4, Parent: 1, Start: 90, End: 95},
	}
	if got := selfTimes(spans)[1]; got != 100-(70+5) {
		t.Errorf("router self = %d, want 25: the union of its children covers 75", got)
	}
}

func TestSelfTimeClipsChildrenToTheParent(t *testing.T) {
	// A child that outlives its parent (a reply still being written when the
	// outer span closed) is only counted while the parent was open.
	spans := []span{
		{Name: "outer", ID: 1, Start: 100, End: 200},
		{Name: "inner", ID: 2, Parent: 1, Start: 50, End: 150},
		{Name: "stray", ID: 3, Parent: 1, Start: 300, End: 400},
	}
	if got := selfTimes(spans)[1]; got != 50 {
		t.Errorf("outer self = %d, want 50", got)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.begin("x", 1, 0); id != 0 {
		t.Errorf("nil recorder began span %d", id)
	}
	nilRec.end(0)

	r := newRecorder()
	if id := r.begin("x", 1, 0); id != 0 {
		t.Errorf("silent recorder began span %d", id)
	}
	r.on.Store(true)
	root := r.begin("client", 7, 0)
	child := r.begin("router", 7, root)
	open := r.begin("never-closed", 7, root)
	r.end(child)
	r.end(root)
	_ = open
	got := r.closed()
	if len(got) != 2 || got[0].Name != "client" || got[1].Parent != root || got[1].Call != 7 {
		t.Errorf("closed spans = %+v, want client and its router child", got)
	}
	var buf bytes.Buffer
	if err := writeJSONLines(&buf, got); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("wrote %d lines, want one per span", lines)
	}
}

func TestByNameKeepsOnlyTheRootedCalls(t *testing.T) {
	spans := []span{
		{Name: "client.ingest", Call: 1, ID: 1, Start: 0, End: 1000},
		{Name: "router", Call: 1, ID: 2, Parent: 1, Start: 100, End: 900},
		{Name: "client.live_predict", Call: 2, ID: 3, Start: 0, End: 5000},
		{Name: "router", Call: 2, ID: 4, Parent: 3, Start: 100, End: 4900},
	}
	agg := byName(spans, "client.ingest")
	if rt := get(agg, "router"); rt.n != 1 || rt.meanUs() != 0.8 {
		t.Errorf("router under ingest calls: n=%d mean=%g us, want 1 and 0.8", rt.n, rt.meanUs())
	}
	if c := get(agg, "client.ingest"); c.selfUs() != 0.2 {
		t.Errorf("client self = %g us, want 0.2", c.selfUs())
	}
	if all := byName(spans, ""); get(all, "router").n != 2 {
		t.Errorf("no root filter should keep both router spans")
	}
}
