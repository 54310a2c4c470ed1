package mvc

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"webmlgo/internal/rdb"
)

// Kind is the dynamic type of a Cell. The numbering is fixed: the wire
// writes a cell's kind as its value tag (internal/ejb/codec.go).
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

// Cell is one field of a bean row: a Value of the types a query can
// produce, held without a box so that a row-set is one allocation however
// many fields it has. Build one with CellOf; the zero Cell is NULL.
type Cell struct {
	Kind Kind
	Num  uint64 // KInt: the int64; KFloat: its IEEE 754 bits
	Str  string // KString: the text; KTime: Time.MarshalBinary's bytes
}

// CellOf unboxes v. A type no query produces is an error here, where the
// bean is built, not when the bean reaches the wire or a tag.
func CellOf(v Value) (Cell, error) {
	switch x := v.(type) {
	case nil:
		return Cell{}, nil
	case int64:
		return Cell{Kind: KInt, Num: uint64(x)}, nil
	case float64:
		return Cell{Kind: KFloat, Num: math.Float64bits(x)}, nil
	case string:
		return Cell{Kind: KString, Str: x}, nil
	case bool:
		if x {
			return Cell{Kind: KTrue}, nil
		}
		return Cell{Kind: KFalse}, nil
	case time.Time:
		b, err := x.MarshalBinary()
		return Cell{Kind: KTime, Str: string(b)}, err
	}
	return Cell{}, fmt.Errorf("mvc: unsupported bean value type %T", v)
}

// Time decodes a KTime cell; ok is false when Str is not a marshalled time.
func (c Cell) Time() (t time.Time, ok bool) {
	ok = c.Kind == KTime && t.UnmarshalBinary([]byte(c.Str)) == nil
	return t, ok
}

// Value boxes the cell back into the Value CellOf took.
func (c Cell) Value() Value {
	switch c.Kind {
	case KInt:
		return int64(c.Num)
	case KFloat:
		return math.Float64frombits(c.Num)
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

// Append appends the cell's parameter form, FormatParam(c.Value()),
// without boxing a number or copying a text.
func (c Cell) Append(dst []byte) []byte {
	switch c.Kind {
	case KInt:
		return strconv.AppendInt(dst, int64(c.Num), 10)
	case KFloat:
		return strconv.AppendFloat(dst, math.Float64frombits(c.Num), 'g', -1, 64)
	case KString:
		return append(dst, c.Str...)
	}
	return rdb.AppendValue(dst, c.Value())
}
