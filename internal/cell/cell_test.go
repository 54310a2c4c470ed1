package cell

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// spelling is the text form a value has always had in result dumps and
// request parameters: fmt's %v, except NULL for nil and RFC 3339 times.
func spelling(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case time.Time:
		return x.Format(time.RFC3339)
	}
	panic("no spelling")
}

// TestCellMatchesValue: a cell is its value without the box — Value gives
// the value back and Append spells it as the value has always been
// spelled, byte for byte, over every type a query produces and the edges
// of each.
func TestCellMatchesValue(t *testing.T) {
	at := time.Unix(1700000000, 123456789)
	values := []any{
		nil,
		int64(math.MinInt64), int64(0), int64(255), int64(256), int64(math.MaxInt64),
		0.0, math.Copysign(0, -1), 1.5, 100.0, 1e21, -1e-7, math.NaN(), math.Inf(1), math.Inf(-1),
		"", "plain", `<a href="x?y=1&z=2">'q' + %41 é 日本</a>`, "NULL", "\x00\xff",
		true, false,
		at.UTC(), at.In(time.FixedZone("", 5*3600+45*60)), time.Time{},
	}
	for _, v := range values {
		c, err := Of(v)
		if err != nil {
			t.Fatalf("Of(%#v): %v", v, err)
		}
		got := c.Value()
		if f, isFloat := v.(float64); isFloat {
			// NaN != NaN and -0 == 0: compare the bits.
			if g, ok := got.(float64); !ok || math.Float64bits(g) != math.Float64bits(f) {
				t.Errorf("Of(%v).Value() = %#v", v, got)
			}
		} else if !reflect.DeepEqual(got, v) {
			t.Errorf("Of(%#v).Value() = %#v", v, got)
		}
		if got, want := string(c.Append([]byte("k="))), "k="+spelling(v); got != want {
			t.Errorf("Of(%#v).Append = %q, want %q", v, got, want)
		}
	}
	if c, _ := Of(""); c == (Cell{}) {
		t.Error(`"" and NULL are one cell`)
	}
	for _, v := range []any{map[string]interface{}{"k": int64(1)}, []interface{}{"x"}, []byte("raw"), 7, struct{}{}} {
		if c, err := Of(v); err == nil {
			t.Errorf("Of(%#v) = %+v, want an error", v, c)
		}
	}
	// A time cell somebody built by hand from garbage formats as the zero
	// time; it never panics.
	bad := Cell{Kind: KTime, Str: "\x01garbage"}
	if _, ok := bad.Time(); ok || !bad.Value().(time.Time).IsZero() || len(bad.Append(nil)) == 0 {
		t.Errorf("garbage time cell: value %v", bad.Value())
	}
}

// TestCellIsFourWords pins the size the slab arithmetic in DESIGN
// "Row-sets" is stated in.
func TestCellIsFourWords(t *testing.T) {
	if size := reflect.TypeOf(Cell{}).Size(); size != 32 {
		t.Fatalf("Cell is %d bytes, want 32", size)
	}
}
