package cosmos

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

type doc struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func TestUpsertGet(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("results")
	if err := c.Upsert("westus", "srv-1", doc{Name: "a", Value: 1.5}); err != nil {
		t.Fatal(err)
	}
	var got doc
	if err := c.Get("westus", "srv-1", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "a" || got.Value != 1.5 {
		t.Errorf("got %+v", got)
	}
	// Upsert replaces.
	if err := c.Upsert("westus", "srv-1", doc{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Get("westus", "srv-1", &got); err != nil || got.Name != "b" {
		t.Errorf("after replace: %+v err %v", got, err)
	}
}

func TestGetNotFound(t *testing.T) {
	db, _ := Open("")
	c := db.Collection("x")
	var got doc
	if err := c.Get("p", "missing", &got); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

// TestQueryBodyOutlivesWrites pins the contract readers rely on to
// recognise an unchanged document by its slice: a body handed out by Query
// keeps its bytes after the same id is rewritten — with a body of the same
// length — or deleted, and the rewrite is handed out as a different slice.
func TestQueryBodyOutlivesWrites(t *testing.T) {
	db, _ := Open("")
	c := db.Collection("x")
	body := func() json.RawMessage {
		var out json.RawMessage
		if err := c.Query("p", func(_ string, b json.RawMessage) error { out = b; return nil }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	_ = c.Upsert("p", "id", doc{Name: "a", Value: 1})
	first := body()
	saved := string(first)
	_ = c.Upsert("p", "id", doc{Name: "b", Value: 2})
	second := body()
	if len(second) != len(first) || string(second) == saved {
		t.Fatalf("rewrite should differ at equal length: %s vs %s", second, saved)
	}
	if &second[0] == &first[0] {
		t.Fatal("rewrite reused the old body's slice")
	}
	if err := c.Delete("p", "id"); err != nil {
		t.Fatal(err)
	}
	if string(first) != saved || string(second) != `{"name":"b","value":2}` {
		t.Fatalf("handed-out bodies changed: %s, %s", first, second)
	}
}

func TestDelete(t *testing.T) {
	db, _ := Open("")
	c := db.Collection("x")
	_ = c.Upsert("p", "id", doc{})
	if err := c.Delete("p", "id"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("p", "id"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestIDsPartitionsCount(t *testing.T) {
	db, _ := Open("")
	c := db.Collection("x")
	_ = c.Upsert("p2", "b", doc{})
	_ = c.Upsert("p1", "z", doc{})
	_ = c.Upsert("p1", "a", doc{})
	if ids := c.IDs("p1"); len(ids) != 2 || ids[0] != "a" || ids[1] != "z" {
		t.Errorf("IDs = %v", ids)
	}
	if ps := c.Partitions(); len(ps) != 2 || ps[0] != "p1" || ps[1] != "p2" {
		t.Errorf("Partitions = %v", ps)
	}
	if c.Count("p1") != 2 || c.Count("nope") != 0 {
		t.Errorf("Count wrong")
	}
}

func TestQueryOrderedAndStops(t *testing.T) {
	db, _ := Open("")
	c := db.Collection("x")
	for i := 0; i < 5; i++ {
		_ = c.Upsert("p", fmt.Sprintf("id-%d", i), doc{Value: float64(i)})
	}
	var seen []string
	err := c.Query("p", func(id string, body json.RawMessage) error {
		seen = append(seen, id)
		if len(seen) == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || len(seen) != 3 {
		t.Errorf("seen=%v err=%v", seen, err)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Errorf("unsorted iteration: %v", seen)
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("predictions")
	_ = c.Upsert("westus", "srv-1", doc{Name: "persisted", Value: 7})
	_ = db.Collection("empty") // collections with no docs persist too
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got doc
	if err := db2.Collection("predictions").Get("westus", "srv-1", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "persisted" || got.Value != 7 {
		t.Errorf("got %+v", got)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(files) != 2 {
		t.Errorf("collection files = %v", files)
	}
}

func TestFlushMemoryOnlyNoop(t *testing.T) {
	db, _ := Open("")
	_ = db.Collection("x").Upsert("p", "id", doc{})
	if err := db.Flush(); err != nil {
		t.Errorf("memory flush err = %v", err)
	}
}

func TestOpenBadCollectionFile(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/broken.json", "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt collection should fail Open")
	}
}

func TestDump(t *testing.T) {
	db, _ := Open("")
	c := db.Collection("x")
	_ = c.Upsert("b", "2", doc{})
	_ = c.Upsert("a", "1", doc{})
	docs := c.Dump()
	if len(docs) != 2 || docs[0].Partition != "a" || docs[1].Partition != "b" {
		t.Errorf("Dump = %+v", docs)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db, _ := Open("")
	c := db.Collection("x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := c.Upsert("p", id, doc{Value: float64(i)}); err != nil {
					t.Error(err)
					return
				}
				var got doc
				if err := c.Get("p", id, &got); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Count("p") != 800 {
		t.Errorf("count = %d", c.Count("p"))
	}
}

func TestUpsertUnmarshalable(t *testing.T) {
	db, _ := Open("")
	c := db.Collection("x")
	if err := c.Upsert("p", "id", func() {}); err == nil {
		t.Error("unmarshalable value should error")
	}
}

func writeFile(path, content string) error {
	return osWriteFile(path, []byte(content), 0o644)
}
