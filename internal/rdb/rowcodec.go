package rdb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"webmlgo/internal/cell"
)

// This file is the wire codec between the executor's cells and the
// durable engine's byte payloads: row images stored in B-tree leaves
// and change-set records framed into the WAL. The format is tagged and
// little-endian, and a value's tag is its cell.Kind; it never changes
// shape silently — unknown tags are a decode error, so a version bump is
// forced to be explicit.

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

// appendCell writes one value: its kind as the tag, then the payload.
func appendCell(b []byte, c cell.Cell) []byte {
	b = append(b, byte(c.Kind))
	switch c.Kind {
	case cell.KInt:
		return appendVarint(b, c.Int())
	case cell.KFloat:
		return binary.LittleEndian.AppendUint64(b, c.Num)
	case cell.KString, cell.KTime:
		return appendBytes(b, []byte(c.Str))
	}
	return b
}

// encodeRow serializes a row image: column count then tagged values.
func encodeRow(r Row) []byte {
	b := appendUvarint(make([]byte, 0, 16+8*len(r)), uint64(len(r)))
	for _, c := range r {
		b = appendCell(b, c)
	}
	return b
}

// colMask names the columns of one table a plan reads (bit i: column
// i). Columns from 63 on share bit 63: a plan that reads one of them
// reads, and a cache entry that has one holds, all of them.
type colMask uint64

const allCols = ^colMask(0)

func colBit(i int) colMask { return 1 << min(i, 63) }

func (m colMask) has(i int) bool { return m&colBit(i) != 0 }

// decoder is a cursor over one encoded payload held as a string: a row
// image as a fault appended it to its execution's image arena
// (pager.BTree.AppendString), or a WAL frame. A text or time cell is a
// substring of the payload, never a copy, so a cell that outlives its row
// keeps the arena chunk it sits in alive whole (DESIGN.md, "Anti-caching
// rows"). Every read fails loudly on truncation; the first failure sticks
// and names the defect, and the caller says what was being decoded.
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

// uvarint is binary.Uvarint over the payload, refusing the overlong forms
// (a last byte of 0 after others) the encoder never writes, so an image
// the decoder accepts is the one encodeRow writes for what it decoded.
func (d *decoder) uvarint() uint64 {
	var x uint64
	for s := uint(0); d.err == nil; s += 7 {
		if d.off == len(d.s) || s == 63 && d.s[d.off] > 1 || s > 0 && d.s[d.off] == 0 {
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

// cell reads one tagged value into a cell with no allocation: the tag is
// the kind, a text or time is a substring of the payload. A time is parsed
// to check it unless skip is set.
func (d *decoder) cell(skip bool) (c cell.Cell) {
	switch c.Kind = cell.Kind(d.byte()); c.Kind {
	case cell.KNull, cell.KFalse, cell.KTrue:
	case cell.KInt:
		c.Num = uint64(d.varint())
	case cell.KFloat:
		c.Num = d.u64()
	case cell.KString:
		c.Str = d.str()
	case cell.KTime:
		if c.Str = d.str(); !skip && d.err == nil {
			if _, ok := c.Time(); !ok {
				d.fail("bad time")
			}
		}
	default:
		d.fail("unknown value tag")
	}
	return c
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
		if c := d.cell(!need.has(i)); d.err == nil && need.has(i) {
			row[i] = c
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
