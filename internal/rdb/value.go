// Package rdb is an embedded, in-memory relational database engine with a
// SQL subset. It is the data tier of the reproduction: the paper's unit
// descriptors carry literal SQL text that the data expert may override, so
// the runtime needs a store that actually parses and executes SQL.
//
// Supported SQL is what the stack writes, and no more (ParseStatement
// has the grammar): CREATE TABLE, CREATE [ORDERED] INDEX;
// SELECT of columns, literals and '?' — or COUNT(*) alone — with JOIN ...
// ON, WHERE comparisons (= <> < <= > >= LIKE) joined by AND, ORDER BY,
// LIMIT and OFFSET; INSERT, UPDATE and DELETE; '?' positional parameters.
// The engine has hash indexes, an equality-lookup planner, and
// undo-log-based transactions. Statements are cached after first parse.
package rdb

import (
	"fmt"
	"math"
	"strings"
	"time"

	"webmlgo/internal/cell"
)

// ColType enumerates column data types.
type ColType int

const (
	// TInt is a 64-bit signed integer column.
	TInt ColType = iota
	// TReal is a float64 column.
	TReal
	// TText is a string column.
	TText
	// TBool is a boolean column.
	TBool
	// TTime is a timestamp column.
	TTime
)

// String returns the SQL spelling of the type.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "INTEGER"
	case TReal:
		return "REAL"
	case TText:
		return "TEXT"
	case TBool:
		return "BOOLEAN"
	case TTime:
		return "TIMESTAMP"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

func parseColType(s string) (ColType, bool) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return TInt, true
	case "REAL", "FLOAT", "DOUBLE", "DECIMAL", "NUMERIC":
		return TReal, true
	case "TEXT", "VARCHAR", "CHAR", "STRING", "CLOB":
		return TText, true
	case "BOOL", "BOOLEAN":
		return TBool, true
	case "TIMESTAMP", "DATETIME", "DATE", "TIME":
		return TTime, true
	}
	return 0, false
}

// Value is a single SQL value as the public API takes and returns it:
// nil, int64, float64, string, bool, or time.Time. Arguments of other Go
// numeric types are normalized by argCell. Inside the engine every value
// is a cell.Cell; Value exists only at Query/Exec's arguments and at
// QueryRow's and Rows.Maps's results.
type Value interface{}

// argCell unboxes an argument supplied by a caller, normalizing the Go
// integer and float types and []byte first.
func argCell(v Value) (cell.Cell, error) {
	switch x := v.(type) {
	case int:
		return cell.Int(int64(x)), nil
	case int32:
		return cell.Int(int64(x)), nil
	case int16:
		return cell.Int(int64(x)), nil
	case int8:
		return cell.Int(int64(x)), nil
	case uint:
		return cell.Int(int64(x)), nil
	case uint32:
		return cell.Int(int64(x)), nil
	case float32:
		return cell.Float(float64(x)), nil
	case []byte:
		return cell.Text(string(x)), nil
	}
	c, err := cell.Of(v)
	if err != nil {
		return c, fmt.Errorf("rdb: unsupported value type %T", v)
	}
	return c, nil
}

// typeName is the Go type of the value a cell holds, as errors name it.
func typeName(c cell.Cell) string {
	switch c.Kind {
	case cell.KInt:
		return "int64"
	case cell.KFloat:
		return "float64"
	case cell.KString:
		return "string"
	case cell.KFalse, cell.KTrue:
		return "bool"
	case cell.KTime:
		return "time.Time"
	}
	return "<nil>"
}

// indexKey is the cell an index files c under: equal values must be one
// key, and −0.0 = +0.0.
func indexKey(c cell.Cell) cell.Cell {
	if c.Kind == cell.KFloat && c.Float() == 0 {
		return cell.Float(0)
	}
	return c
}

// probeKey gives an equality key the representation a column of type typ
// stores: the index maps are keyed by stored values, and SQL holds 1 = 1.0.
func probeKey(c cell.Cell, typ ColType) cell.Cell {
	switch c.Kind {
	case cell.KInt:
		if typ == TReal {
			return cell.Float(float64(c.Int()))
		}
	case cell.KFloat:
		if f := c.Float(); typ == TInt && f == math.Trunc(f) && math.Abs(f) < 1<<63 {
			return cell.Int(int64(f))
		}
	}
	return indexKey(c)
}

// toColumn converts c to the column type, or errors.
func toColumn(c cell.Cell, t ColType) (cell.Cell, error) {
	k := c.Kind
	switch {
	case k == cell.KNull:
		return c, nil
	case t == TInt && k == cell.KInt, t == TReal && k == cell.KFloat,
		t == TText && k == cell.KString, t == TTime && k == cell.KTime,
		t == TBool && (k == cell.KFalse || k == cell.KTrue):
		return c, nil
	case t == TInt && k == cell.KFloat:
		return cell.Int(int64(c.Float())), nil
	case t == TInt && (k == cell.KFalse || k == cell.KTrue):
		return cell.Int(int64(k - cell.KFalse)), nil
	case t == TReal && k == cell.KInt:
		return cell.Float(float64(c.Int())), nil
	case t == TBool && k == cell.KInt:
		return cell.Bool(c.Int() != 0), nil
	case t == TTime && k == cell.KString:
		for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
			if ts, err := time.Parse(layout, c.Str); err == nil {
				return cell.Of(ts)
			}
		}
	}
	return cell.Cell{}, fmt.Errorf("rdb: cannot store %s in %s column", typeName(c), t)
}

// compare orders two non-NULL cells. NULL ordering is handled by the
// caller. Mixed integer/real comparisons are performed in float64.
func compare(a, b cell.Cell) (int, error) {
	switch {
	case a.Kind == cell.KInt && b.Kind == cell.KInt:
		return cmpInt(a.Int(), b.Int()), nil
	case isNumber(a) && isNumber(b):
		return cmpFloat(toFloat(a), toFloat(b)), nil
	case a.Kind == cell.KString && b.Kind == cell.KString:
		return strings.Compare(a.Str, b.Str), nil
	case isBool(a) && isBool(b):
		return cmpInt(int64(a.Kind), int64(b.Kind)), nil
	case a.Kind == cell.KTime && b.Kind == cell.KTime:
		x, _ := a.Time()
		y, _ := b.Time()
		return x.Compare(y), nil
	}
	return 0, fmt.Errorf("rdb: cannot compare %s with %s", typeName(a), typeName(b))
}

func isNumber(c cell.Cell) bool { return c.Kind == cell.KInt || c.Kind == cell.KFloat }

func isBool(c cell.Cell) bool { return c.Kind == cell.KFalse || c.Kind == cell.KTrue }

// toFloat is a number cell's value as a real.
func toFloat(c cell.Cell) float64 {
	if c.Kind == cell.KInt {
		return float64(c.Int())
	}
	return c.Float()
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// isTrue reports whether c counts as true in a WHERE clause.
func isTrue(c cell.Cell) bool {
	switch c.Kind {
	case cell.KNull, cell.KFalse:
		return false
	case cell.KInt:
		return c.Int() != 0
	case cell.KFloat:
		return c.Float() != 0
	case cell.KString:
		return c.Str != ""
	}
	return true
}

// FormatValue renders a value the way result dumps and tests expect.
func FormatValue(v Value) string {
	if x, ok := v.(string); ok {
		return x
	}
	return string(AppendValue(nil, v))
}

// AppendValue appends FormatValue's rendering of v to dst and returns the
// extended slice — the allocation-free building block for hot-path key
// construction. It is cell.Cell.Append's spelling; a type no query
// produces is spelled by fmt.
func AppendValue(dst []byte, v Value) []byte {
	c, err := cell.Of(v)
	if err != nil {
		return fmt.Appendf(dst, "%v", v)
	}
	return c.Append(dst)
}
