package rdb

import (
	"encoding/binary"
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

// decoder is a cursor over an encoded buffer. Every read method fails
// loudly on truncation; the durable engine treats any decode error as
// corruption and refuses to open.
type decoder struct {
	b   []byte
	err error
	// img and text serve row images (decodeRow): text is one string copy
	// of img, made at the first text column, that every text value of the
	// row sub-slices.
	img  []byte
	text string
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("rdb: corrupt record: %s", msg)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail("short buffer")
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) bytes() []byte { return d.take(int(d.uvarint())) }
func (d *decoder) str() string   { return string(d.bytes()) }

// textValue reads a text column as a sub-slice of the row's one string,
// which a value that outlives the row keeps alive whole (DESIGN.md,
// "Anti-caching rows").
func (d *decoder) textValue() string {
	p := d.bytes()
	if len(p) == 0 {
		return ""
	}
	if d.text == "" {
		d.text = string(d.img)
	}
	end := len(d.img) - len(d.b)
	return d.text[end-len(p) : end]
}

func (d *decoder) byte() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *decoder) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *decoder) value() Value {
	switch d.byte() {
	case tagNil:
		return nil
	case tagInt:
		return d.varint()
	case tagReal:
		return math.Float64frombits(d.u64())
	case tagText:
		return d.textValue()
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagTime:
		var t time.Time
		if p := d.bytes(); d.err == nil {
			if err := t.UnmarshalBinary(p); err != nil {
				d.fail("bad time")
			}
		}
		return t
	default:
		d.fail("unknown value tag")
		return nil
	}
}

// decodeRow parses a row image produced by encodeRow.
func decodeRow(b []byte) (Row, error) {
	d := decoder{b: b, img: b}
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > uint64(len(b)) { // each value costs >= 1 byte
		return nil, fmt.Errorf("rdb: corrupt record: implausible column count %d", n)
	}
	r := make(Row, n)
	for i := range r {
		r[i] = d.value()
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("rdb: corrupt record: %d trailing bytes", len(d.b))
	}
	return r, nil
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
	d := &decoder{b: b}
	rec := &walRecord{seq: d.u64()}
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("rdb: corrupt record: implausible op count %d", n)
	}
	rec.ops = make([]walOp, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		op := walOp{kind: d.byte()}
		switch op.kind {
		case wopDDL:
			op.sql = d.str()
		case wopPut:
			op.table = d.str()
			op.recID = d.u64()
			op.rowData = append([]byte(nil), d.bytes()...)
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
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("rdb: corrupt record: %d trailing bytes", len(d.b))
	}
	return rec, nil
}
