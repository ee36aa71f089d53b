package storage

import (
	"fmt"
	"sort"
	"sync"
)

// DB is a named collection of tables: the database a SkyNode wraps.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}}
}

// Create creates a table with the given schema.
func (db *DB) Create(name string, schema Schema) (*Table, error) {
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	db.tables[name] = t
	return t, nil
}

// addTable registers an already-built table (Store recovery constructs
// tables from footers rather than through Create).
func (db *DB) addTable(t *Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[t.name]; ok {
		return fmt.Errorf("storage: table %q already exists", t.name)
	}
	db.tables[t.name] = t
	return nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Names returns the sorted names of all tables.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
