// Package cell is the one representation of a SQL value below the public
// API: a kind, eight bytes and a string, with no box. The data tier
// decodes row images into cells and plans compute on them
// (internal/rdb), beans carry them (internal/mvc), and the wire writes a
// cell's kind as its value tag (internal/ejb) — the same numbering the
// row codec writes into a page leaf.
package cell

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind is the dynamic type of a Cell. The numbering is fixed: the row
// codec (internal/rdb/rowcodec.go) and the wire (internal/ejb/codec.go)
// write a cell's kind as its value tag.
type Kind uint8

const (
	KNull   Kind = 0
	KInt    Kind = 1
	KFloat  Kind = 2
	KString Kind = 3
	KFalse  Kind = 4
	KTrue   Kind = 5
	KTime   Kind = 6
)

// Cell is one value of the types a query can produce, held without a box
// so that a row of any width is one allocation. The zero Cell is NULL.
type Cell struct {
	Kind Kind
	Num  uint64 // KInt: the int64; KFloat: its IEEE 754 bits
	Str  string // KString: the text; KTime: Time.MarshalBinary's bytes
}

// Int is the cell of an integer.
func Int(i int64) Cell { return Cell{Kind: KInt, Num: uint64(i)} }

// Float is the cell of a real.
func Float(f float64) Cell { return Cell{Kind: KFloat, Num: math.Float64bits(f)} }

// Text is the cell of a string.
func Text(s string) Cell { return Cell{Kind: KString, Str: s} }

// Bool is the cell of a boolean.
func Bool(b bool) Cell {
	if b {
		return Cell{Kind: KTrue}
	}
	return Cell{Kind: KFalse}
}

// Of unboxes v: nil, int64, float64, string, bool or time.Time. Any other
// type is an error here, where the value enters, not where it is used.
func Of(v any) (Cell, error) {
	switch x := v.(type) {
	case nil:
		return Cell{}, nil
	case int64:
		return Int(x), nil
	case float64:
		return Float(x), nil
	case string:
		return Text(x), nil
	case bool:
		return Bool(x), nil
	case time.Time:
		b, err := x.MarshalBinary()
		return Cell{Kind: KTime, Str: string(b)}, err
	}
	return Cell{}, fmt.Errorf("cell: unsupported value type %T", v)
}

// IsNull reports whether c is NULL.
func (c Cell) IsNull() bool { return c.Kind == KNull }

// Int is a KInt cell's integer.
func (c Cell) Int() int64 { return int64(c.Num) }

// Float is a KFloat cell's real.
func (c Cell) Float() float64 { return math.Float64frombits(c.Num) }

// Time decodes a KTime cell; ok is false when Str is not a marshalled time.
func (c Cell) Time() (t time.Time, ok bool) {
	ok = c.Kind == KTime && t.UnmarshalBinary([]byte(c.Str)) == nil
	return t, ok
}

// Value boxes the cell back into the value Of took.
func (c Cell) Value() any {
	switch c.Kind {
	case KInt:
		return c.Int()
	case KFloat:
		return c.Float()
	case KString:
		return c.Str
	case KFalse, KTrue:
		return c.Kind == KTrue
	case KTime:
		t, _ := c.Time()
		return t
	}
	return nil
}

// Append appends the cell's text form — NULL, the decimal integer, the
// shortest 'g' real, the text itself, true/false, an RFC 3339 time —
// without boxing a number or copying a text.
func (c Cell) Append(dst []byte) []byte {
	switch c.Kind {
	case KInt:
		return strconv.AppendInt(dst, c.Int(), 10)
	case KFloat:
		return strconv.AppendFloat(dst, c.Float(), 'g', -1, 64)
	case KString:
		return append(dst, c.Str...)
	case KFalse:
		return append(dst, "false"...)
	case KTrue:
		return append(dst, "true"...)
	case KTime:
		t, _ := c.Time()
		return t.AppendFormat(dst, time.RFC3339)
	}
	return append(dst, "NULL"...)
}
