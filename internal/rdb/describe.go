package rdb

import (
	"fmt"
	"sort"
	"strings"
)

// ColumnInfo describes one column for catalog introspection.
type ColumnInfo struct {
	Name    string
	Type    ColType
	NotNull bool
	Unique  bool
	AutoInc bool
}

// TableInfo is the catalog entry of one table.
type TableInfo struct {
	Name string
	// PrimaryKey is the primary-key column name ("" if none).
	PrimaryKey  string
	Columns     []ColumnInfo
	ForeignKeys []ForeignKeyDef
	// Indexes lists hash-indexed columns; OrderedIndexes the columns of
	// one-column sorted indexes.
	Indexes        []string
	OrderedIndexes []string
	// CompositeIndexes lists the sorted indexes over several columns.
	CompositeIndexes []CompositeIndexInfo
	Rows             int
}

// CompositeIndexInfo describes one multi-column sorted index.
type CompositeIndexInfo struct {
	Name    string
	Columns []string
}

// Describe returns the catalog entry of a table — the introspection
// surface schema reverse-engineering and tooling build on.
func (db *DB) Describe(tableName string) (*TableInfo, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return nil, fmt.Errorf("rdb: no such table %q", tableName)
	}
	info := &TableInfo{Name: t.name, ForeignKeys: append([]ForeignKeyDef(nil), t.fks...), Rows: t.alive}
	for i, c := range t.cols {
		info.Columns = append(info.Columns, ColumnInfo{
			Name: strings.ToLower(c.def.Name), Type: c.def.Type,
			NotNull: c.def.NotNull, Unique: c.def.Unique, AutoInc: c.def.AutoIncrement,
		})
		if i == t.pk {
			info.PrimaryKey = strings.ToLower(c.def.Name)
		}
	}
	for col := range t.indexes {
		info.Indexes = append(info.Indexes, col)
	}
	sort.Strings(info.Indexes)
	for _, ix := range t.composites {
		if len(ix.cols) == 1 {
			info.OrderedIndexes = append(info.OrderedIndexes, ix.colNames[0])
			continue
		}
		info.CompositeIndexes = append(info.CompositeIndexes, CompositeIndexInfo{
			Name: ix.name, Columns: append([]string(nil), ix.colNames...),
		})
	}
	sort.Strings(info.OrderedIndexes)
	// Normalize FK column/table casing for callers.
	for i := range info.ForeignKeys {
		info.ForeignKeys[i].Column = strings.ToLower(info.ForeignKeys[i].Column)
		info.ForeignKeys[i].RefTable = strings.ToLower(info.ForeignKeys[i].RefTable)
		info.ForeignKeys[i].RefColumn = strings.ToLower(info.ForeignKeys[i].RefColumn)
	}
	return info, nil
}
