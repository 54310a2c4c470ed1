// Package rdb is an embedded, in-memory relational database engine with a
// SQL subset. It is the data tier of the reproduction: the paper's unit
// descriptors carry literal SQL text that the data expert may override, so
// the runtime needs a store that actually parses and executes SQL.
//
// Supported SQL: CREATE TABLE / CREATE INDEX / DROP TABLE, SELECT with
// INNER and LEFT joins, WHERE, GROUP BY + aggregates, ORDER BY, LIMIT and
// OFFSET, DISTINCT, INSERT, UPDATE, DELETE, and '?' positional parameters.
// The engine has hash indexes, an equality-lookup planner, and
// undo-log-based transactions. Statements are cached after first parse.
package rdb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
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

// Value is a single SQL value: nil, int64, float64, string, bool, or
// time.Time. Inputs of other Go numeric types are normalized by coerce.
type Value interface{}

// coerce normalizes Go values supplied by callers into canonical Value
// representations.
func coerce(v Value) (Value, error) {
	switch x := v.(type) {
	case nil, int64, float64, string, bool, time.Time:
		return x, nil
	case int:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case int16:
		return int64(x), nil
	case int8:
		return int64(x), nil
	case uint:
		return int64(x), nil
	case uint32:
		return int64(x), nil
	case float32:
		return float64(x), nil
	case []byte:
		return string(x), nil
	default:
		return nil, fmt.Errorf("rdb: unsupported value type %T", v)
	}
}

// probeKey gives an equality key the representation a column of type typ
// stores: the index maps are keyed by stored values, and SQL holds 1 = 1.0.
func probeKey(v Value, typ ColType) Value {
	switch x := v.(type) {
	case int64:
		if typ == TReal {
			return float64(x)
		}
	case float64:
		if typ == TInt && x == math.Trunc(x) && math.Abs(x) < 1<<63 {
			return int64(x)
		}
	}
	return v
}

// coerceToCol converts v to the column type, or errors.
func coerceToCol(v Value, t ColType) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		}
	case TReal:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		}
	case TText:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case TBool:
		switch x := v.(type) {
		case bool:
			return x, nil
		case int64:
			return x != 0, nil
		}
	case TTime:
		switch x := v.(type) {
		case time.Time:
			return x, nil
		case string:
			for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
				if ts, err := time.Parse(layout, x); err == nil {
					return ts, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("rdb: cannot store %T in %s column", v, t)
}

// compareValues orders two non-nil values. NULL ordering is handled by the
// caller. Mixed int/float comparisons are performed in float64.
func compareValues(a, b Value) (int, error) {
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmpInt(x, y), nil
		case float64:
			return cmpFloat(float64(x), y), nil
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return cmpFloat(x, y), nil
		case int64:
			return cmpFloat(x, float64(y)), nil
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y), nil
		}
	case bool:
		if y, ok := b.(bool); ok {
			return cmpInt(boolToInt(x), boolToInt(y)), nil
		}
	case time.Time:
		if y, ok := b.(time.Time); ok {
			switch {
			case x.Before(y):
				return -1, nil
			case x.After(y):
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	return 0, fmt.Errorf("rdb: cannot compare %T with %T", a, b)
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

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// truthy reports whether v counts as true in a WHERE clause.
func truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
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
// construction.
func AppendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "NULL"...)
	case string:
		return append(dst, x...)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		// Match fmt's %v rendering of float64 ('g', shortest).
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case time.Time:
		return x.AppendFormat(dst, time.RFC3339)
	case bool:
		if x {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	default:
		return fmt.Appendf(dst, "%v", x)
	}
}
