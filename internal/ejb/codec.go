package ejb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"webmlgo/internal/cell"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
)

// This file is the wire codec: a hand-rolled binary encoding
// of the fixed request/response shapes. Unlike gob it carries no
// per-connection type stream and uses no reflection — every field of
// every shape is written and read by explicit code, with varint lengths,
// tagged optional fields and a tagged scalar encoding for mvc.Value.
// Encode buffers are pooled; decoding works off a fully-read frame
// buffer, so every length can be validated against the bytes actually
// present (no attacker-controlled allocation sizes).

// errCodec is the generic malformed-input error of the decoder.
var errCodec = errors.New("ejb: malformed wire data")

// maxNesting bounds recursive shapes (hierarchical bean nodes, nested
// map/slice values) so crafted input cannot overflow the stack.
const maxNesting = 64

// Value tags: a scalar is tagged by its cell.Cell kind, so a bean row
// field travels as its kind byte and payload with no box in between; a
// map or a slice, which only parameter maps carry, by the two tags past
// the last kind.
const (
	vMap   = byte(cell.KTime + 1)
	vSlice = byte(cell.KTime + 2)
)

// Bean flags: a bean is absent, carries its own schema (unit ID, kind,
// field names and level field names), or has its descriptor's and leaves
// it off the wire, as every generic service's bean does.
const (
	beanNone byte = iota
	beanOwnSchema
	beanDescriptorSchema
)

// frameHead is the room an encode buffer keeps in front of its payload
// for the frame's length prefix.
const frameHead = binary.MaxVarintLen64

// wbuf is a pooled encode buffer with a sticky error. b is frameHead
// reserved bytes, then the payload.
type wbuf struct {
	b   []byte
	err error
}

var wbufPool = sync.Pool{New: func() interface{} { return &wbuf{b: make([]byte, frameHead, 1024)} }}

func getWbuf() *wbuf {
	w := wbufPool.Get().(*wbuf)
	w.b = w.b[:frameHead]
	w.err = nil
	return w
}

func (w *wbuf) payload() []byte { return w.b[frameHead:] }

// frame back-fills the length prefix and returns prefix and payload as
// one slice, so a frame is one Write and no second buffer.
func (w *wbuf) frame() []byte {
	var head [frameHead]byte
	n := binary.PutUvarint(head[:], uint64(len(w.payload())))
	copy(w.b[frameHead-n:], head[:n])
	return w.b[frameHead-n:]
}

// prefixLength puts the uvarint length of what was written since start
// in front of it. The length is known once the body is written, so room
// is made for it and the body moved behind it.
func (w *wbuf) prefixLength(start int) {
	n := len(w.b) - start
	var head [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(head[:], uint64(n))
	w.b = append(w.b, head[:k]...)
	copy(w.b[start+k:], w.b[start:start+n])
	copy(w.b[start:], head[:k])
}

func putWbuf(w *wbuf) {
	if cap(w.b) > 1<<20 {
		// Don't let one huge page pin a megabyte in the pool forever.
		return
	}
	wbufPool.Put(w)
}

func (w *wbuf) byte(v byte)      { w.b = append(w.b, v) }
func (w *wbuf) uvarint(u uint64) { w.b = binary.AppendUvarint(w.b, u) }
func (w *wbuf) varint(i int64)   { w.b = binary.AppendVarint(w.b, i) }

func (w *wbuf) bool(v bool) {
	if v {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *wbuf) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *wbuf) strs(ss []string) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

// sortedKeys fixes the iteration order of every map we encode: the wire
// form of a value is canonical (equal values encode to equal bytes),
// which the fuzzers rely on and which keeps frames reproducible.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (w *wbuf) strMap(m map[string]string) {
	w.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		w.str(k)
		w.str(m[k])
	}
}

// value writes one tagged mvc.Value: a scalar as its cell, a map or a
// slice recursively. Unsupported dynamic types poison the buffer — the
// frame send fails with a clear error instead of silently corrupting the
// stream.
func (w *wbuf) value(v mvc.Value) { w.valueDepth(v, 0) }

func (w *wbuf) valueDepth(v mvc.Value, depth int) {
	if depth > maxNesting {
		w.err = fmt.Errorf("ejb: value nesting exceeds %d", maxNesting)
		return
	}
	switch x := v.(type) {
	case map[string]interface{}:
		w.byte(vMap)
		w.uvarint(uint64(len(x)))
		for _, k := range sortedKeys(x) {
			w.str(k)
			w.valueDepth(x[k], depth+1)
		}
	case []interface{}:
		w.byte(vSlice)
		w.uvarint(uint64(len(x)))
		for _, sv := range x {
			w.valueDepth(sv, depth+1)
		}
	default:
		if c, err := cell.Of(v); err != nil {
			w.err = fmt.Errorf("ejb: value on the wire: %w", err)
		} else {
			w.cell(c)
		}
	}
}

// cell writes one scalar: its kind as the tag, then its payload.
func (w *wbuf) cell(c cell.Cell) {
	w.byte(byte(c.Kind))
	switch c.Kind {
	case cell.KNull, cell.KFalse, cell.KTrue:
	case cell.KInt:
		w.varint(int64(c.Num))
	case cell.KFloat:
		w.b = binary.LittleEndian.AppendUint64(w.b, c.Num)
	case cell.KString:
		w.str(c.Str)
	case cell.KTime:
		if _, ok := c.Time(); !ok {
			w.err = errors.New("ejb: time cell does not hold a marshalled time")
		}
		w.str(c.Str)
	default:
		w.err = fmt.Errorf("ejb: cell of unknown kind %d", c.Kind)
	}
}

func (w *wbuf) valueMap(m map[string]mvc.Value) {
	w.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		w.str(k)
		w.value(m[k])
	}
}

// rbuf decodes from a fully-read frame buffer with a sticky error. text
// is one string copy of b, made when the first string is read: every
// decoded string is a substring of it, so a frame's strings cost one
// allocation, and whatever retains a decoded bean retains its frame's
// bytes (they are mostly the bean's own). units, when set, interns the
// unit descriptors a request frame carries (nil decodes each afresh).
type rbuf struct {
	b     []byte
	off   int
	err   error
	text  string
	units *unitTable
}

func (r *rbuf) fail() { r.err = errCodec }

func (r *rbuf) remaining() int { return len(r.b) - r.off }

func (r *rbuf) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return u
}

func (r *rbuf) varint() int64 {
	if r.err != nil {
		return 0
	}
	i, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return i
}

func (r *rbuf) bool() bool { return r.byte() != 0 }

// count reads a collection length and validates it against the bytes
// still present (every element needs at least one byte), so a crafted
// length can never drive a huge allocation.
func (r *rbuf) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()) {
		r.fail()
		return 0
	}
	return int(n)
}

// body reads a length-prefixed body and returns its bytes.
func (r *rbuf) body() []byte {
	n := r.count()
	if r.err != nil {
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *rbuf) str() string {
	n := r.count()
	if r.err != nil || n == 0 {
		return ""
	}
	if r.text == "" {
		r.text = string(r.b)
	}
	s := r.text[r.off : r.off+n]
	r.off += n
	return s
}

func (r *rbuf) strs() []string {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *rbuf) strMap() map[string]string {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.str()
		m[k] = r.str()
	}
	if r.err != nil {
		return nil
	}
	return m
}

func (r *rbuf) value() mvc.Value { return r.valueDepth(0) }

func (r *rbuf) valueDepth(depth int) mvc.Value {
	if depth > maxNesting {
		r.fail()
		return nil
	}
	if r.remaining() > 0 && r.b[r.off] < vMap {
		return r.cell().Value()
	}
	switch tag := r.byte(); tag {
	case vMap:
		n := r.count()
		if r.err != nil {
			return nil
		}
		m := make(map[string]interface{}, n)
		for i := 0; i < n; i++ {
			k := r.str()
			m[k] = r.valueDepth(depth + 1)
		}
		return m
	case vSlice:
		n := r.count()
		if r.err != nil {
			return nil
		}
		s := make([]interface{}, n)
		for i := range s {
			s[i] = r.valueDepth(depth + 1)
		}
		return s
	default:
		r.fail()
		return nil
	}
}

// cell reads one scalar in place: a tag that is a cell kind and its
// payload, text aliasing the frame's one string copy. A time stays the
// bytes the wire carries, checked here so that no later reader can fail
// on them.
func (r *rbuf) cell() (c cell.Cell) {
	switch c.Kind = cell.Kind(r.byte()); c.Kind {
	case cell.KNull, cell.KFalse, cell.KTrue:
	case cell.KInt:
		c.Num = uint64(r.varint())
	case cell.KFloat:
		if r.remaining() < 8 {
			r.fail()
			break
		}
		c.Num = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	case cell.KString:
		c.Str = r.str()
	case cell.KTime:
		c.Str = r.str()
		if _, ok := c.Time(); !ok {
			r.fail()
		}
	default:
		r.fail()
	}
	return c
}

func (r *rbuf) valueMap() map[string]mvc.Value {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]mvc.Value, n)
	for i := 0; i < n; i++ {
		k := r.str()
		m[k] = r.value()
	}
	if r.err != nil {
		return nil
	}
	return m
}

// ---- descriptor.Unit ----
//
// Every field except XMLName crosses the wire (the container only reads
// the descriptor, it never re-serializes it to XML). Unlike gob the
// codec is not self-describing: a field added to descriptor.Unit must be
// added here too, bumping wireVersion if old peers must not see it.
//
// A descriptor travels as a length-prefixed body, empty for none, so the
// container can find it in the table of descriptors it has decoded
// before (unitTable) by its bytes alone.

func (w *wbuf) unitPtr(u *descriptor.Unit) {
	start := len(w.b)
	if u != nil {
		w.unit(u)
	}
	w.prefixLength(start)
}

func (w *wbuf) unit(u *descriptor.Unit) {
	w.str(u.ID)
	w.str(u.Kind)
	w.str(u.Entity)
	w.bool(u.Optimized)
	w.str(u.Service)
	w.str(u.Query)
	w.str(u.CountQuery)
	w.varint(int64(u.PageSize))
	w.uvarint(uint64(len(u.Inputs)))
	for _, p := range u.Inputs {
		w.str(p.Name)
		w.bool(p.Wildcard)
	}
	w.fieldDefs(u.Outputs)
	w.uvarint(uint64(len(u.Levels)))
	for _, l := range u.Levels {
		w.str(l.Entity)
		w.str(l.Query)
		w.fieldDefs(l.Outputs)
		w.str(l.Dep)
	}
	w.uvarint(uint64(len(u.Fields)))
	for _, f := range u.Fields {
		w.str(f.Name)
		w.str(f.Type)
		w.bool(f.Required)
	}
	w.uvarint(uint64(len(u.Props)))
	for _, p := range u.Props {
		w.str(p.Name)
		w.str(p.Value)
	}
	w.strs(u.Reads)
	w.strs(u.Writes)
	if u.Cache == nil {
		w.bool(false)
	} else {
		w.bool(true)
		w.bool(u.Cache.Enabled)
		w.varint(int64(u.Cache.TTLSeconds))
	}
}

func (w *wbuf) fieldDefs(fs []descriptor.FieldDef) {
	w.uvarint(uint64(len(fs)))
	for _, f := range fs {
		w.str(f.Name)
		w.str(f.Column)
	}
}

func (r *rbuf) unitPtr() *descriptor.Unit {
	body := r.body()
	if r.err != nil || len(body) == 0 {
		return nil
	}
	u, err := r.units.unit(body)
	if err != nil {
		r.err = err
	}
	return u
}

// decodeUnit decodes one descriptor body, which must be read to its last
// byte. Its strings are substrings of text, a string copy of body, made
// here when text is "": a descriptor keeps only its own bytes alive,
// never its frame.
func decodeUnit(body []byte, text string) (*descriptor.Unit, error) {
	r := rbuf{b: body, text: text}
	u := r.unit()
	if r.err == nil && r.remaining() != 0 {
		r.fail()
	}
	return u, r.err
}

func (r *rbuf) unit() *descriptor.Unit {
	u := &descriptor.Unit{}
	u.ID = r.str()
	u.Kind = r.str()
	u.Entity = r.str()
	u.Optimized = r.bool()
	u.Service = r.str()
	u.Query = r.str()
	u.CountQuery = r.str()
	u.PageSize = int(r.varint())
	if n := r.count(); n > 0 {
		u.Inputs = make([]descriptor.ParamDef, n)
		for i := range u.Inputs {
			u.Inputs[i].Name = r.str()
			u.Inputs[i].Wildcard = r.bool()
		}
	}
	u.Outputs = r.fieldDefs()
	if n := r.count(); n > 0 {
		u.Levels = make([]descriptor.Level, n)
		for i := range u.Levels {
			u.Levels[i].Entity = r.str()
			u.Levels[i].Query = r.str()
			u.Levels[i].Outputs = r.fieldDefs()
			u.Levels[i].Dep = r.str()
		}
	}
	if n := r.count(); n > 0 {
		u.Fields = make([]descriptor.FieldSpec, n)
		for i := range u.Fields {
			u.Fields[i].Name = r.str()
			u.Fields[i].Type = r.str()
			u.Fields[i].Required = r.bool()
		}
	}
	if n := r.count(); n > 0 {
		u.Props = make([]descriptor.Prop, n)
		for i := range u.Props {
			u.Props[i].Name = r.str()
			u.Props[i].Value = r.str()
		}
	}
	u.Reads = r.strs()
	u.Writes = r.strs()
	if r.bool() {
		u.Cache = &descriptor.CachePolicy{Enabled: r.bool(), TTLSeconds: int(r.varint())}
	}
	if r.err != nil {
		return nil
	}
	return u
}

func (r *rbuf) fieldDefs() []descriptor.FieldDef {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	fs := make([]descriptor.FieldDef, n)
	for i := range fs {
		fs[i].Name = r.str()
		fs[i].Column = r.str()
	}
	return fs
}

// ---- mvc.UnitBean ----

// hasSchemaOf reports whether b's unit ID, kind and field names are d's.
func hasSchemaOf(b *mvc.UnitBean, d *descriptor.Unit) bool {
	if d == nil || b.UnitID != d.ID || b.Kind != d.Kind {
		return false
	}
	fields, levels := d.FieldNames()
	return slices.Equal(b.Fields, fields) && slices.EqualFunc(b.LevelFields, levels, slices.Equal[[]string])
}

// beanPtr writes a bean answering descriptor d (nil: none known), with
// its schema only where it is not d's.
func (w *wbuf) beanPtr(b *mvc.UnitBean, d *descriptor.Unit) {
	switch {
	case b == nil:
		w.byte(beanNone)
		return
	case hasSchemaOf(b, d):
		w.byte(beanDescriptorSchema)
	default:
		w.byte(beanOwnSchema)
		w.str(b.UnitID)
		w.str(b.Kind)
		w.strs(b.Fields)
		w.uvarint(uint64(len(b.LevelFields)))
		for _, lf := range b.LevelFields {
			w.strs(lf)
		}
	}
	w.nodes(b, b.Nodes, 0)
	w.bool(b.Missing)
	w.varint(int64(b.Total))
	w.varint(int64(b.Offset))
	w.varint(int64(b.PageSize))
	w.uvarint(uint64(len(b.FormFields)))
	for _, f := range b.FormFields {
		w.str(f.Name)
		w.str(f.Type)
		w.bool(f.Required)
		w.str(f.Value)
	}
	w.strMap(b.Errors)
	w.strMap(b.Props)
}

// nodes writes a sibling list: count, then (when non-empty) the row
// width and per node its positional values and its children. Names never
// cross the wire per row — the width must be that of the bean's field
// list for the level, which travels at most once.
func (w *wbuf) nodes(b *mvc.UnitBean, ns []mvc.Node, depth int) {
	if depth > maxNesting {
		w.err = fmt.Errorf("ejb: bean nesting exceeds %d", maxNesting)
		return
	}
	w.uvarint(uint64(len(ns)))
	if len(ns) == 0 {
		return
	}
	width := len(b.LevelNames(depth))
	w.uvarint(uint64(width))
	for i := range ns {
		if len(ns[i].Values) != width {
			w.err = fmt.Errorf("ejb: unit %s: node of %d values under %d fields", b.UnitID, len(ns[i].Values), width)
			return
		}
		for _, c := range ns[i].Values {
			w.cell(c)
		}
		w.nodes(b, ns[i].Children, depth+1)
	}
}

// beanPtr reads a bean answering descriptor d. A bean of d's schema
// shares d's field names; without a descriptor it is malformed.
func (r *rbuf) beanPtr(d *descriptor.Unit) *mvc.UnitBean {
	flag := r.byte()
	if r.err != nil || flag == beanNone {
		return nil
	}
	b := &mvc.UnitBean{}
	switch {
	case flag == beanDescriptorSchema && d != nil:
		b.UnitID, b.Kind = d.ID, d.Kind
		b.Fields, b.LevelFields = d.FieldNames()
	case flag == beanOwnSchema:
		b.UnitID = r.str()
		b.Kind = r.str()
		b.Fields = r.strs()
		if n := r.count(); n > 0 {
			b.LevelFields = make([][]string, n)
			for i := range b.LevelFields {
				b.LevelFields[i] = r.strs()
			}
		}
	default:
		r.fail()
		return nil
	}
	b.Nodes = r.nodes(b, 0)
	b.Missing = r.bool()
	b.Total = int(r.varint())
	b.Offset = int(r.varint())
	b.PageSize = int(r.varint())
	if n := r.count(); n > 0 {
		b.FormFields = make([]mvc.FormField, n)
		for i := range b.FormFields {
			b.FormFields[i].Name = r.str()
			b.FormFields[i].Type = r.str()
			b.FormFields[i].Required = r.bool()
			b.FormFields[i].Value = r.str()
		}
	}
	b.Errors = r.strMap()
	b.Props = r.strMap()
	if r.err != nil {
		return nil
	}
	return b
}

// nodes reads a sibling list into one exact-size slab of cells. The width
// must match the bean's field list, decoded or its descriptor's, and every node needs
// width+1 bytes, so no crafted count sizes an allocation the payload
// could not fill.
func (r *rbuf) nodes(b *mvc.UnitBean, depth int) []mvc.Node {
	if depth > maxNesting {
		r.fail()
		return nil
	}
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	width := len(b.LevelNames(depth))
	if r.uvarint() != uint64(width) || n*(width+1) > r.remaining() {
		r.fail()
		return nil
	}
	ns := make([]mvc.Node, n)
	slab := make([]cell.Cell, n*width)
	for i := range ns {
		if width > 0 {
			ns[i].Values = slab[i*width : (i+1)*width : (i+1)*width]
		}
		for j := range ns[i].Values {
			ns[i].Values[j] = r.cell()
		}
		ns[i].Children = r.nodes(b, depth+1)
	}
	return ns
}

// ---- mvc.OpResult / mvc.PageState / mvc.FormState / obs.Span ----

func (w *wbuf) opPtr(op *mvc.OpResult) {
	if op == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.bool(op.OK)
	w.str(op.Err)
	w.valueMap(op.Outputs)
}

func (r *rbuf) opPtr() *mvc.OpResult {
	if !r.bool() || r.err != nil {
		return nil
	}
	op := &mvc.OpResult{}
	op.OK = r.bool()
	op.Err = r.str()
	op.Outputs = r.valueMap()
	if r.err != nil {
		return nil
	}
	return op
}

// pagePtr writes a page state, each bean against its unit's descriptor
// in units (nil: none known).
func (w *wbuf) pagePtr(p *mvc.PageState, units *descriptor.Repository) {
	if p == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.str(p.PageID)
	w.uvarint(uint64(len(p.Beans)))
	for _, k := range sortedKeys(p.Beans) {
		w.str(k)
		w.beanPtr(p.Beans[k], units.Unit(k))
	}
	w.strs(p.Order)
}

func (r *rbuf) pagePtr(units *descriptor.Repository) *mvc.PageState {
	if !r.bool() || r.err != nil {
		return nil
	}
	p := &mvc.PageState{PageID: r.str()}
	n := r.count()
	if r.err != nil {
		return nil
	}
	p.Beans = make(map[string]*mvc.UnitBean, n)
	for i := 0; i < n; i++ {
		k := r.str()
		p.Beans[k] = r.beanPtr(units.Unit(k))
	}
	p.Order = r.strs()
	if r.err != nil {
		return nil
	}
	return p
}

func (w *wbuf) formStateMap(m map[string]*mvc.FormState) {
	w.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		fs := m[k]
		w.str(k)
		if fs == nil {
			w.bool(false)
			continue
		}
		w.bool(true)
		w.valueMap(fs.Values)
		w.strMap(fs.Errors)
	}
}

func (r *rbuf) formStateMap() map[string]*mvc.FormState {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]*mvc.FormState, n)
	for i := 0; i < n; i++ {
		k := r.str()
		if !r.bool() {
			m[k] = nil
			continue
		}
		m[k] = &mvc.FormState{Values: r.valueMap(), Errors: r.strMap()}
	}
	if r.err != nil {
		return nil
	}
	return m
}

func (w *wbuf) spans(ss []obs.Span) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.uvarint(s.ID)
		w.uvarint(s.Parent)
		w.str(s.Name)
		w.strs(s.Labels)
		w.varint(s.Start)
		w.varint(s.End)
		w.str(s.Err)
	}
}

func (r *rbuf) spans() []obs.Span {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	ss := make([]obs.Span, n)
	for i := range ss {
		ss[i].ID = r.uvarint()
		ss[i].Parent = r.uvarint()
		ss[i].Name = r.str()
		ss[i].Labels = r.strs()
		ss[i].Start = r.varint()
		ss[i].End = r.varint()
		ss[i].Err = r.str()
	}
	if r.err != nil {
		return nil
	}
	return ss
}

// ---- request and reply frames ----

// A response is encoded against the call it answers, its descriptor and
// a page's units; with no call known, a bean carries its own schema.
func (w *wbuf) response(resp *response, call *batchCall) {
	d, units := call.schema()
	w.beanPtr(resp.Bean, d)
	w.opPtr(resp.Op)
	w.pagePtr(resp.Page, units)
	w.str(resp.Err)
	w.bool(resp.Deadline)
	w.spans(resp.Spans)
}

// response decodes one response into resp, against the call it answers.
func (r *rbuf) response(resp *response, call *batchCall) error {
	d, units := call.schema()
	resp.Bean = r.beanPtr(d)
	resp.Op = r.opPtr()
	resp.Page = r.pagePtr(units)
	resp.Err = r.str()
	if resp.Deadline = r.bool(); resp.Deadline && resp.Err == "" {
		r.fail()
	}
	resp.Spans = r.spans()
	return r.err
}

// schema is what a reply to the call is encoded against (nil: nothing).
func (c *batchCall) schema() (*descriptor.Unit, *descriptor.Repository) {
	if c == nil {
		return nil, nil
	}
	return c.Descriptor, c.Units
}

func (w *wbuf) batchRequest(b *batchRequest) {
	w.varint(b.DeadlineMS)
	w.uvarint(b.TraceID)
	w.uvarint(uint64(len(b.Calls)))
	for i := range b.Calls {
		c := &b.Calls[i]
		w.byte(c.Kind)
		w.uvarint(c.SpanID)
		w.unitPtr(c.Descriptor)
		w.valueMap(c.Inputs)
		w.str(c.PageID)
		w.formStateMap(c.FormState)
	}
}

func (r *rbuf) batchRequest() (batchRequest, error) {
	var b batchRequest
	b.DeadlineMS = r.varint()
	b.TraceID = r.uvarint()
	// An item is at least six bytes (its kind and five empty fields), so
	// the slice a count buys stays within a small multiple of the frame.
	n := r.count()
	if n > r.remaining()/6 {
		r.fail()
	}
	if r.err != nil {
		return batchRequest{}, r.err
	}
	b.Calls = make([]batchCall, n)
	for i := range b.Calls {
		c := &b.Calls[i]
		c.Kind = r.byte()
		c.SpanID = r.uvarint()
		c.Descriptor = r.unitPtr()
		c.Inputs = r.valueMap()
		c.PageID = r.str()
		c.FormState = r.formStateMap()
	}
	if r.err != nil {
		return batchRequest{}, r.err
	}
	return b, nil
}

// batchReply is the body of an ftBatchReply frame: the item count, then
// each item's response as a length-prefixed body, in call order, each
// encoded against its call.
func (w *wbuf) batchReply(items []response, calls []batchCall) {
	w.uvarint(uint64(len(items)))
	for i := range items {
		start := len(w.b)
		w.response(&items[i], callOf(calls, i))
		w.prefixLength(start)
	}
}

// batchReply decodes each item from its own sub-slice, so each has its
// own string copy and a bean kept from one item pins only that item's
// bytes. An item must be read to its last byte, and the reply to its
// last item. Given the calls it answers (nil: none known), the reply
// must hold one item per call.
func (r *rbuf) batchReply(calls []batchCall) ([]response, error) {
	n := r.count()
	if r.err == nil && calls != nil && n != len(calls) {
		r.fail()
	}
	if r.err != nil {
		return nil, r.err
	}
	items := make([]response, n)
	for i := range items {
		item := rbuf{b: r.body()}
		if r.err != nil {
			return nil, r.err
		}
		if err := item.response(&items[i], callOf(calls, i)); err != nil {
			return nil, err
		}
		if item.remaining() != 0 {
			return nil, errCodec
		}
	}
	if r.remaining() != 0 {
		return nil, errCodec
	}
	return items, nil
}

// callOf is item i's call, nil when no calls are known.
func callOf(calls []batchCall, i int) *batchCall {
	if calls == nil {
		return nil
	}
	return &calls[i]
}
