package rdb

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"webmlgo/internal/cell"
)

// The row codec's value tags: a value's tag is its cell kind.
const (
	tagNil   = byte(cell.KNull)
	tagInt   = byte(cell.KInt)
	tagReal  = byte(cell.KFloat)
	tagText  = byte(cell.KString)
	tagFalse = byte(cell.KFalse)
	tagTrue  = byte(cell.KTrue)
	tagTime  = byte(cell.KTime)
)

// malformedRowImages are row images a fault may find in a damaged leaf,
// one per way the decoder can refuse one. testdata/fuzz/FuzzRowImage
// holds each under its name (mask 0: the refusal must not depend on
// which columns a plan reads — except a time, which is parsed only when
// decoded, so bad-time carries the mask that decodes it). An image the
// decoder accepts is the one encodeRow writes for what it decoded, so an
// overlong varint is refused too.
func malformedRowImages() map[string]malformedImage {
	return map[string]malformedImage{
		"truncated-varint":   {[]byte{2, tagInt, 0x80, 0x80}, 0},
		"unknown-tag":        {[]byte{2, tagNil, 9}, 0},
		"trailing-bytes":     {[]byte{1, tagTrue, tagNil}, 0},
		"implausible-count":  {[]byte{0xff, 0xff, 0xff, 0xff, 0x0f, tagNil}, 0},
		"short-text":         {[]byte{2, tagText, 5, 'a', 'b'}, 0},
		"short-real":         {[]byte{1, tagReal, 0, 0, 0, 0}, 0},
		"varint-overflow":    {[]byte{1, tagInt, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 0},
		"overlong-varint":    {[]byte{1, tagText, 0x81, 0x00, 'x'}, 0},
		"bad-time":           {[]byte{2, tagNil, tagTime, 4, 'n', 'o', 'p', 'e'}, 2},
		"missing-last-value": {[]byte{3, tagNil, tagFalse}, 0},
	}
}

type malformedImage struct {
	img  []byte
	mask uint64
}

// TestRowImageMalformed: every malformed image is refused with the row
// codec's error, by a full decode and by a masked one, and the committed
// fuzz corpus is exactly this set.
func TestRowImageMalformed(t *testing.T) {
	cases := malformedRowImages()
	for name, c := range cases {
		if _, err := decodeRow(string(c.img)); err == nil || !strings.HasPrefix(err.Error(), "rdb: corrupt row image: ") {
			t.Errorf("%s: decodeRow error = %v", name, err)
		}
		if err := decodeCols(string(c.img), make(Row, 3), colMask(c.mask)); err == nil {
			t.Errorf("%s: decodeCols under mask %b accepted it", name, c.mask)
		}
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRowImage", name))
		if err != nil {
			t.Errorf("%s: corpus file: %v", name, err)
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		want := []string{"go test fuzz v1", "[]byte(" + strconv.Quote(string(c.img)) + ")", "uint64(" + strconv.FormatUint(c.mask, 10) + ")"}
		if strings.Join(lines, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: corpus file is\n%s\nwant\n%s", name, data, strings.Join(want, "\n"))
		}
	}
	files, _ := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzRowImage"))
	if len(files) != len(cases) {
		t.Errorf("corpus holds %d files, want the %d malformed images", len(files), len(cases))
	}
}

// untouched fills the row slots a masked decode must leave alone.
var untouched = cell.Cell{Kind: kEvicted, Str: "untouched"}

// rowFromBytes spends b on a row of every value kind the codec knows.
func rowFromBytes(b []byte) Row {
	next := func(n int) []byte {
		n = min(n, len(b))
		p := b[:n]
		b = b[n:]
		return p
	}
	u64 := func() uint64 {
		var tmp [8]byte
		copy(tmp[:], next(8))
		return binary.LittleEndian.Uint64(tmp[:])
	}
	var r Row
	for len(b) > 0 && len(r) < 70 { // past 64: the shared high bit
		switch k := next(1)[0]; k % 7 {
		case 0:
			r = append(r, cell.Cell{})
		case 1:
			r = append(r, cell.Int(int64(u64())))
		case 2:
			r = append(r, cell.Float(math.Float64frombits(u64())))
		case 3:
			r = append(r, cell.Text(string(next(int(k/7)%24))))
		case 4:
			r = append(r, cell.Bool(k&8 != 0))
		case 5:
			offset := int(int16(u64())) / 60 * 60
			if offset == -60 {
				offset = 0 // -1 minute is MarshalBinary's UTC marker
			}
			c, err := cell.Of(time.Unix(int64(u64()%(1<<40)), int64(u64()%1e9)).In(time.FixedZone("", offset)))
			if err != nil {
				panic(err)
			}
			r = append(r, c)
		default:
			r = append(r, cell.Text(""))
		}
	}
	return r
}

// FuzzRowImage: arbitrary bytes never panic the row decoder, and an image
// it accepts is byte for byte the image of the row it decodes to, and
// decodes the same under any mask and its widening as in one full decode;
// the image of a row built from the same bytes decodes to that row, cell
// for cell (reals by their bits, times by their bytes), with the masked
// columns decoded and the rest untouched.
func FuzzRowImage(f *testing.F) {
	at, _ := cell.Of(time.Unix(1700000000, 5).UTC())
	for _, r := range []Row{
		{cell.Int(1), cell.Text("title"), {}, cell.Float(2.5), cell.Bool(true), cell.Bool(false), at},
		{},
		{cell.Text("")},
	} {
		f.Add(encodeRow(r), uint64(0b1010))
	}
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		m := colMask(mask)
		if full, err := decodeRow(string(data)); err == nil {
			if img := encodeRow(full); !bytes.Equal(img, data) {
				t.Fatalf("image %q decodes to %v, whose image is %q", data, full, img)
			}
			checkMasked(t, string(data), full, m)
		}
		want := rowFromBytes(data)
		img := encodeRow(want)
		full, err := decodeRow(string(img))
		if err != nil {
			t.Fatalf("decodeRow(encodeRow(%v)): %v", want, err)
		}
		for i := range want {
			if full[i] != want[i] {
				t.Fatalf("column %d: %#v round-tripped as %#v", i, want[i], full[i])
			}
		}
		checkMasked(t, string(img), full, m)
	})
}

// checkMasked decodes img under m, then widens to every column, checking
// both steps against full.
func checkMasked(t *testing.T, img string, full Row, m colMask) {
	t.Helper()
	row := make(Row, len(full))
	for i := range row {
		row[i] = untouched
	}
	if err := decodeCols(img, row, m); err != nil {
		t.Fatalf("mask %b: %v after a full decode succeeded", m, err)
	}
	for i := range row {
		switch {
		case m.has(i) && row[i] != full[i]:
			t.Fatalf("mask %b column %d: %#v, full decode %#v", m, i, row[i], full[i])
		case !m.has(i) && row[i] != untouched:
			t.Fatalf("mask %b column %d written: %#v", m, i, row[i])
		}
	}
	if err := decodeCols(img, row, allCols&^m); err != nil {
		t.Fatalf("widening mask %b: %v", m, err)
	}
	for i := range row {
		if row[i] != full[i] {
			t.Fatalf("widened column %d: %#v, full decode %#v", i, row[i], full[i])
		}
	}
}
