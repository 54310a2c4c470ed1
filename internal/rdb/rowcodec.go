package rdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// This file is the wire codec between the executor's Values and the
// durable engine's byte payloads: row images stored in B-tree leaves
// and change-set records framed into the WAL. The format is tagged and
// little-endian; it never changes shape silently — unknown tags are a
// decode error, so a version bump is forced to be explicit.

// Value tags.
const (
	tagNil   = 0
	tagInt   = 1
	tagReal  = 2
	tagText  = 3
	tagFalse = 4
	tagTrue  = 5
	tagTime  = 6
)

// WAL operation kinds (the durable engine's lowered form of ChangeOps:
// rowIDs are translated to stable record ids before logging).
const (
	wopDDL     = 0
	wopPut     = 1
	wopDel     = 2
	wopAutoInc = 3
)

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(b, tmp[:binary.PutVarint(tmp[:], v)]...)
}

func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendValue(b []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case int64:
		return appendVarint(append(b, tagInt), x), nil
	case float64:
		b = append(b, tagReal)
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(x))
		return append(b, tmp[:]...), nil
	case string:
		return appendBytes(append(b, tagText), []byte(x)), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case time.Time:
		p, err := x.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("rdb: encode time: %w", err)
		}
		return appendBytes(append(b, tagTime), p), nil
	}
	return nil, fmt.Errorf("rdb: cannot encode value of type %T", v)
}

// encodeRow serializes a row image: column count then tagged values.
func encodeRow(r Row) ([]byte, error) {
	b := appendUvarint(make([]byte, 0, 16+8*len(r)), uint64(len(r)))
	var err error
	for _, v := range r {
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// colMask names the columns of one table a plan reads (bit i: column
// i). Columns from 63 on share bit 63: a plan that reads one of them
// reads, and a cache entry that has one holds, all of them.
type colMask uint64

const allCols = ^colMask(0)

func colBit(i int) colMask { return 1 << min(i, 63) }

func (m colMask) has(i int) bool { return m&colBit(i) != 0 }

// decoder is a cursor over one encoded payload held as a string: a row
// image as the page store hands it to a fault (pager.BTree.GetString), or
// a WAL frame. A text value is a substring of the payload, never a copy,
// so a value that outlives its row keeps the image alive whole (DESIGN.md,
// "Anti-caching rows"). Every read fails loudly on truncation; the first
// failure sticks and names the defect, and the caller says what was being
// decoded.
type decoder struct {
	s   string
	off int
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
}

// uvarint is binary.Uvarint over the payload.
func (d *decoder) uvarint() uint64 {
	var x uint64
	for s := uint(0); d.err == nil; s += 7 {
		if d.off == len(d.s) || s == 63 && d.s[d.off] > 1 {
			d.fail("bad varint")
			break
		}
		b := d.s[d.off]
		d.off++
		if b < 0x80 {
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
	}
	return 0
}

func (d *decoder) varint() int64 {
	ux := d.uvarint()
	if ux&1 != 0 {
		return ^int64(ux >> 1)
	}
	return int64(ux >> 1)
}

func (d *decoder) take(n uint64) string {
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.s)-d.off) {
		d.fail("short buffer")
		return ""
	}
	p := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return p
}

func (d *decoder) str() string { return d.take(d.uvarint()) }

func (d *decoder) byte() byte {
	if p := d.take(1); p != "" {
		return p[0]
	}
	return 0
}

func (d *decoder) u64() uint64 {
	p := d.take(8)
	var u uint64
	for i := len(p) - 1; i >= 0; i-- {
		u = u<<8 | uint64(p[i])
	}
	return u
}

// value reads one tagged value; with skip set it only steps over it.
func (d *decoder) value(skip bool) Value {
	switch d.byte() {
	case tagNil:
		return nil
	case tagInt:
		if x := d.varint(); !skip {
			return x
		}
		return nil
	case tagReal:
		if u := d.u64(); !skip {
			return math.Float64frombits(u)
		}
		return nil
	case tagText:
		if p := d.str(); !skip {
			return p
		}
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagTime:
		p := d.str()
		if skip || d.err != nil {
			return nil
		}
		var t time.Time
		if err := t.UnmarshalBinary([]byte(p)); err != nil {
			d.fail("bad time")
		}
		return t
	}
	d.fail("unknown value tag")
	return nil
}

// decodeCols decodes the columns need names from a row image produced by
// encodeRow into row, which must be as wide as the image; every other
// slot of row is left as it is. The whole image is walked either way, so
// a truncated or overlong image, a wrong width or an unknown tag fails
// whatever the mask; a skipped time value is not parsed.
func decodeCols(img string, row Row, need colMask) error {
	d := decoder{s: img}
	if n := d.uvarint(); d.err == nil && n != uint64(len(row)) {
		return fmt.Errorf("%d columns, want %d", n, len(row))
	}
	for i := 0; i < len(row) && d.err == nil; i++ {
		if v := d.value(!need.has(i)); d.err == nil && need.has(i) {
			row[i] = v
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(img) {
		return fmt.Errorf("%d trailing bytes", len(img)-d.off)
	}
	return nil
}

// decodeRow decodes every column of a row image.
func decodeRow(img string) (Row, error) {
	d := decoder{s: img}
	n := d.uvarint()
	if d.err == nil && n > uint64(len(img)) { // each value costs >= 1 byte
		d.fail(fmt.Sprintf("implausible column count %d", n))
	}
	var row Row
	if d.err == nil {
		row = make(Row, n)
		d.err = decodeCols(img, row, allCols)
	}
	if d.err != nil {
		return nil, fmt.Errorf("rdb: corrupt row image: %w", d.err)
	}
	return row, nil
}

// walOp is one lowered operation inside a WAL record.
type walOp struct {
	kind    byte
	table   string // lower-cased (put, del, autoinc)
	sql     string // ddl
	recID   uint64 // put, del
	rowData []byte // put: encoded row image
	autoInc int64  // autoinc
}

// walRecord is the decoded payload of one WAL frame: the full effect
// of one committed change-set.
type walRecord struct {
	seq uint64
	ops []walOp
}

// encodeWALRecord serializes a record: seq, op count, then ops.
func encodeWALRecord(rec *walRecord) []byte {
	b := make([]byte, 8, 64)
	binary.LittleEndian.PutUint64(b, rec.seq)
	b = appendUvarint(b, uint64(len(rec.ops)))
	for _, op := range rec.ops {
		b = append(b, op.kind)
		switch op.kind {
		case wopDDL:
			b = appendBytes(b, []byte(op.sql))
		case wopPut:
			b = appendBytes(b, []byte(op.table))
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], op.recID)
			b = append(b, tmp[:]...)
			b = appendBytes(b, op.rowData)
		case wopDel:
			b = appendBytes(b, []byte(op.table))
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], op.recID)
			b = append(b, tmp[:]...)
		case wopAutoInc:
			b = appendBytes(b, []byte(op.table))
			b = appendVarint(b, op.autoInc)
		}
	}
	return b
}

// decodeWALRecord parses one frame payload.
func decodeWALRecord(b []byte) (*walRecord, error) {
	d := &decoder{s: string(b)}
	rec := &walRecord{seq: d.u64()}
	n := d.uvarint()
	if d.err == nil && n > uint64(len(b)) {
		d.fail(fmt.Sprintf("implausible op count %d", n))
	}
	if d.err == nil {
		rec.ops = make([]walOp, 0, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		op := walOp{kind: d.byte()}
		switch op.kind {
		case wopDDL:
			op.sql = d.str()
		case wopPut:
			op.table = d.str()
			op.recID = d.u64()
			op.rowData = []byte(d.str())
		case wopDel:
			op.table = d.str()
			op.recID = d.u64()
		case wopAutoInc:
			op.table = d.str()
			op.autoInc = d.varint()
		default:
			d.fail("unknown op kind")
		}
		rec.ops = append(rec.ops, op)
	}
	if d.err == nil && d.off != len(d.s) {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.s)-d.off))
	}
	if d.err != nil {
		return nil, fmt.Errorf("rdb: corrupt WAL record: %w", d.err)
	}
	return rec, nil
}
