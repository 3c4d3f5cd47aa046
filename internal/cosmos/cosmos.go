// Package cosmos is the Cosmos DB analog (Section 2.2): a document store
// with named collections, partition keys and JSON persistence, holding the
// pipeline's predictions and accuracy results. It is an in-process store
// with optional durability to disk — the paper only exercises
// write-then-read-by-key semantics.
//
// Concurrency: DB and Collection are safe for concurrent use (collections
// are independently RW-locked; Query copies a partition's (id, body) pairs
// under the read lock and releases it before the first callback, so a
// callback may write into the same collection, and the iteration does not
// see the write). Durability: writes are applied in memory and persisted by
// Flush; a persistent DB reloads every collection on Open.
//
// Stored bodies are immutable: every write installs a freshly marshalled
// slice and nothing writes a stored body in place, so a body handed out by
// Query or Dump keeps its bytes after the document is rewritten or deleted.
// Readers may rely on this to recognise an unchanged document by its slice
// (stream.DriftDetector reuses decoded predictions this way).
package cosmos

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"seagull/internal/jsonbody"
)

// ErrNotFound reports a missing document.
var ErrNotFound = errors.New("cosmos: document not found")

// Document is a stored item: a partition key, an id unique within the
// partition, and an arbitrary JSON-serializable body.
type Document struct {
	Partition string          `json:"partition"`
	ID        string          `json:"id"`
	Body      json.RawMessage `json:"body"`
}

// Collection is a named set of documents, safe for concurrent use.
type Collection struct {
	mu   sync.RWMutex
	name string
	docs map[string]map[string]json.RawMessage // partition -> id -> body
}

// DB is a set of collections, safe for concurrent use.
type DB struct {
	mu          sync.RWMutex
	collections map[string]*Collection
	dir         string // persistence directory; empty means memory-only
}

// Open returns a database persisting to dir; an empty dir keeps the store in
// memory only. Existing collections under dir are loaded eagerly.
func Open(dir string) (*DB, error) {
	db := &DB{collections: map[string]*Collection{}, dir: dir}
	if dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cosmos: open: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cosmos: open: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		c, err := loadCollection(filepath.Join(dir, e.Name()), name)
		if err != nil {
			return nil, err
		}
		db.collections[name] = c
	}
	return db, nil
}

func loadCollection(path, name string) (*Collection, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cosmos: load %s: %w", name, err)
	}
	var docs []Document
	if err := json.Unmarshal(data, &docs); err != nil {
		return nil, fmt.Errorf("cosmos: load %s: %w", name, err)
	}
	c := newCollection(name)
	for _, d := range docs {
		part := c.docs[d.Partition]
		if part == nil {
			part = map[string]json.RawMessage{}
			c.docs[d.Partition] = part
		}
		part[d.ID] = d.Body
	}
	return c, nil
}

func newCollection(name string) *Collection {
	return &Collection{name: name, docs: map[string]map[string]json.RawMessage{}}
}

// Collection returns the named collection, creating it if absent.
func (db *DB) Collection(name string) *Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.collections[name]
	if !ok {
		c = newCollection(name)
		db.collections[name] = c
	}
	return c
}

// Flush persists every collection to the database directory. It is a no-op
// for memory-only databases.
func (db *DB) Flush() error {
	if db.dir == "" {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for name, c := range db.collections {
		docs := c.Dump()
		data, err := json.Marshal(docs)
		if err != nil {
			return fmt.Errorf("cosmos: flush %s: %w", name, err)
		}
		tmp := filepath.Join(db.dir, name+".json.tmp")
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return fmt.Errorf("cosmos: flush %s: %w", name, err)
		}
		if err := os.Rename(tmp, filepath.Join(db.dir, name+".json")); err != nil {
			return fmt.Errorf("cosmos: flush %s: %w", name, err)
		}
	}
	return nil
}

// Upsert stores v under (partition, id), replacing any existing document.
func (c *Collection) Upsert(partition, id string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cosmos: marshal %s/%s: %w", partition, id, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	part := c.docs[partition]
	if part == nil {
		part = map[string]json.RawMessage{}
		c.docs[partition] = part
	}
	part[id] = body
	return nil
}

// Get unmarshals the document at (partition, id) into out with
// jsonbody.Unmarshal.
func (c *Collection) Get(partition, id string, out any) error {
	c.mu.RLock()
	body := c.docs[partition][id]
	c.mu.RUnlock()
	if body == nil {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, partition, id)
	}
	return jsonbody.Unmarshal(body, out)
}

// Delete removes the document at (partition, id); deleting a missing
// document returns ErrNotFound.
func (c *Collection) Delete(partition, id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	part := c.docs[partition]
	if part == nil || part[id] == nil {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, partition, id)
	}
	delete(part, id)
	return nil
}

// IDs lists document ids in a partition, sorted.
func (c *Collection) IDs(partition string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	part := c.docs[partition]
	out := make([]string, 0, len(part))
	for id := range part {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Partitions lists partition keys, sorted.
func (c *Collection) Partitions() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.docs))
	for p := range c.docs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of documents in a partition.
func (c *Collection) Count(partition string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs[partition])
}

// Query invokes fn for every document in a partition (sorted by id) and
// collects no results itself; fn unmarshals what it needs. Iteration stops at
// the first error.
func (c *Collection) Query(partition string, fn func(id string, body json.RawMessage) error) error {
	c.mu.RLock()
	part := c.docs[partition]
	docs := make([]Document, 0, len(part))
	for id, b := range part {
		docs = append(docs, Document{ID: id, Body: b})
	}
	c.mu.RUnlock()
	slices.SortFunc(docs, func(a, b Document) int { return strings.Compare(a.ID, b.ID) })
	for _, d := range docs {
		if err := fn(d.ID, d.Body); err != nil {
			return err
		}
	}
	return nil
}

// Dump returns every document in the collection, ordered by partition then
// id — used for persistence and tests.
func (c *Collection) Dump() []Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Document
	parts := make([]string, 0, len(c.docs))
	for p := range c.docs {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	for _, p := range parts {
		ids := make([]string, 0, len(c.docs[p]))
		for id := range c.docs[p] {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			out = append(out, Document{Partition: p, ID: id, Body: c.docs[p][id]})
		}
	}
	return out
}
