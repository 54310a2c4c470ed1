package ejb

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webmlgo/internal/cell"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
)

// ---- codec round-trips ----

// fullRequest populates every request field the codec carries, including
// every dynamic value type the codec tags (nested maps and slices,
// time.Time). Collections are non-empty or nil: the codec normalizes
// empty collections to nil on decode.
func fullRequest() *request {
	return &request{
		Kind: "unit",
		Descriptor: &descriptor.Unit{
			ID: "u1", Kind: "index", Entity: "Paper", Optimized: true,
			Service: "custom.Svc", Query: "SELECT oid FROM paper WHERE a=?",
			CountQuery: "SELECT COUNT(*) FROM paper", PageSize: 25,
			Inputs:  []descriptor.ParamDef{{Name: "kw", Wildcard: true}, {Name: "oid"}},
			Outputs: []descriptor.FieldDef{{Name: "Title", Column: "title"}},
			Levels: []descriptor.Level{{Entity: "Issue", Query: "SELECT 1",
				Outputs: []descriptor.FieldDef{{Name: "N", Column: "n"}}, Dep: "vol-iss"}},
			Fields: []descriptor.FieldSpec{{Name: "q", Type: "TEXT", Required: true}},
			Props:  []descriptor.Prop{{Name: "color", Value: "red"}},
			Reads:  []string{"paper"}, Writes: []string{"paper", "issue"},
			Cache: &descriptor.CachePolicy{Enabled: true, TTLSeconds: 30},
		},
		Inputs: map[string]mvc.Value{
			"int":    int64(-42),
			"float":  3.5,
			"string": "x",
			"bool":   true,
			"nil":    nil,
			"time":   time.Unix(1700000000, 123456789).UTC(),
			"nested": map[string]interface{}{"k": int64(1), "deep": map[string]interface{}{"s": "v"}},
			"list":   []interface{}{int64(1), "two", false},
		},
		PageID: "p1",
		FormState: map[string]*mvc.FormState{
			"e1":  {Values: map[string]mvc.Value{"q": "sticky"}, Errors: map[string]string{"q": "required"}},
			"nil": nil,
		},
		DeadlineMS: 1500,
		TraceID:    7,
		SpanID:     9,
	}
}

func fullResponse() *response {
	return &response{
		Bean: &mvc.UnitBean{
			UnitID: "u1", Kind: "index",
			Fields:      []string{"oid", "Title"},
			LevelFields: [][]string{{"N"}},
			Nodes: []mvc.Node{
				{Values: cells(int64(1), "A"),
					Children: []mvc.Node{{Values: cells(int64(2))}}},
				{Values: cells(int64(2), time.Unix(1700000000, 0).UTC())},
				{Values: cells(nil, -2.5)},
				{Values: cells(true, false)},
				{Values: cells(int64(-1<<63), time.Unix(1700000000, 5).In(time.FixedZone("", 19800)))},
			},
			Missing: false, Total: 40, Offset: 20, PageSize: 10,
			FormFields: []mvc.FormField{{Name: "q", Type: "TEXT", Required: true, Value: "v"}},
			Errors:     map[string]string{"q": "bad"},
			Props:      map[string]string{"p": "v"},
		},
		Op: &mvc.OpResult{OK: false, Err: "dup", Outputs: map[string]mvc.Value{"oid": int64(3)}},
		Page: &mvc.PageState{PageID: "p1",
			Beans: map[string]*mvc.UnitBean{"u1": {UnitID: "u1", Kind: "data"}, "missing": nil},
			Order: []string{"u1"}},
		Err: "boom",
		Spans: []obs.Span{{ID: 1, Parent: 0, Name: "container.invoke",
			Labels: []string{"kind", "unit"}, Start: 10, End: 20, Err: "x"}},
	}
}

// cells unboxes one literal row for a test bean.
func cells(row ...mvc.Value) []cell.Cell {
	out := make([]cell.Cell, len(row))
	for i, v := range row {
		var err error
		if out[i], err = cell.Of(v); err != nil {
			panic(err)
		}
	}
	return out
}

func TestCodecRequestRoundTrip(t *testing.T) {
	req := fullRequest()
	w := getWbuf()
	w.request(req)
	if w.err != nil {
		t.Fatal(w.err)
	}
	r := rbuf{b: w.payload()}
	got, err := r.request()
	if err != nil {
		t.Fatal(err)
	}
	if r.remaining() != 0 {
		t.Fatalf("%d trailing bytes after decode", r.remaining())
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, req)
	}
	putWbuf(w)
}

func TestCodecResponseRoundTrip(t *testing.T) {
	resp := fullResponse()
	w := getWbuf()
	w.response(resp)
	if w.err != nil {
		t.Fatal(w.err)
	}
	r := rbuf{b: w.payload()}
	got, err := r.response()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, resp)
	}
	putWbuf(w)
}

func TestCodecBatchRequestRoundTrip(t *testing.T) {
	breq := &batchRequest{
		DeadlineMS: 900, TraceID: 5,
		Calls: []batchCall{
			{SpanID: 11, Descriptor: fullRequest().Descriptor, Inputs: map[string]mvc.Value{"a": int64(1)}},
			{SpanID: 12, Descriptor: &descriptor.Unit{ID: "u2", Kind: "data"}},
		},
	}
	w := getWbuf()
	w.batchRequest(breq)
	if w.err != nil {
		t.Fatal(w.err)
	}
	r := rbuf{b: w.payload()}
	got, err := r.batchRequest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, breq) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, breq)
	}
	putWbuf(w)
}

// TestCodecRejectsUnknownValueType: an unregistered dynamic type must
// poison the encoder rather than silently producing garbage.
func TestCodecRejectsUnknownValueType(t *testing.T) {
	w := getWbuf()
	w.value(struct{ X int }{1})
	if w.err == nil {
		t.Fatal("unknown value type encoded without error")
	}
}

// TestCodecTruncatedInputFails: every prefix of a valid encoding must
// decode to an error, never to a silent partial request.
func TestCodecTruncatedInputFails(t *testing.T) {
	w := getWbuf()
	w.request(fullRequest())
	full := append([]byte(nil), w.payload()...)
	putWbuf(w)
	for n := 0; n < len(full); n++ {
		r := rbuf{b: full[:n]}
		if _, err := r.request(); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", n, len(full))
		}
	}
}

// FuzzCodecRequest feeds arbitrary bytes to the request decoder (it must
// never panic or over-allocate) and, when they decode, checks the
// byte-level fixpoint encode(decode(encode(x))) == encode(x). The
// comparison is on encodings, not structs: a non-canonical wire time can
// decode to a time.Location that is semantically identical but not
// structurally DeepEqual to its re-decoded self.
func FuzzCodecRequest(f *testing.F) {
	w := getWbuf()
	w.request(fullRequest())
	f.Add(append([]byte(nil), w.payload()...))
	putWbuf(w)
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rbuf{b: data}
		req, err := r.request()
		if err != nil {
			return
		}
		w := getWbuf()
		w.request(req)
		if w.err != nil {
			t.Fatalf("decoded request failed to re-encode: %v", w.err)
		}
		enc1 := append([]byte(nil), w.payload()...)
		putWbuf(w)
		r2 := rbuf{b: enc1}
		req2, err := r2.request()
		if err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		w2 := getWbuf()
		w2.request(req2)
		if w2.err != nil {
			t.Fatalf("second re-encode failed: %v", w2.err)
		}
		if !bytes.Equal(enc1, w2.payload()) {
			t.Fatalf("encoding not a fixpoint:\n first %x\nsecond %x", enc1, w2.payload())
		}
		putWbuf(w2)
	})
}

// malformedNodeLists are responses whose bean declares fields and then
// lies in its node list: more rows × width than payload, a width that is
// not the field count, nesting past maxNesting, a field that is no
// scalar (a row holds cells: maps and slices travel only in parameter
// maps), a time whose bytes are cut short or are no time at all.
func malformedNodeLists() map[string][]byte {
	bean := func(fields []string, nodes ...byte) []byte {
		w := getWbuf()
		defer putWbuf(w)
		w.bool(true)
		w.str("u")
		w.str("index")
		w.strs(fields)
		w.uvarint(0) // no level fields
		return append(append([]byte(nil), w.payload()...), nodes...)
	}
	deep := bytes.Repeat([]byte{1, 0}, maxNesting+2) // one zero-width node per level
	return map[string][]byte{
		"rows x width past payload": bean([]string{"a", "b", "c"}, 9, 3, vNil, vNil, vNil, 0, 0, 0, 0, 0, 0),
		"huge count":                bean([]string{"a"}, 0xff, 0xff, 0xff, 0xff, 0x0f, 1),
		"width over fields":         bean([]string{"a"}, 1, 2, vNil, vNil, 0),
		"width under fields":        bean([]string{"a", "b"}, 1, 1, vNil, 0),
		"nesting":                   bean(nil, append(deep, 0)...),
		"map in a row":              bean([]string{"a"}, 1, 1, vMap, 0, 0),
		"slice in a row":            bean([]string{"a"}, 1, 1, vSlice, 1, vNil, 0),
		"tag past the last kind":    bean([]string{"a"}, 1, 1, vSlice+1, 0),
		"time cut short":            bean([]string{"a"}, 1, 1, vTime, 4, 1, 0, 0, 0, 0),
		"time of garbage":           bean([]string{"a"}, 1, 1, vTime, 4, 'n', 'o', 'p', 'e', 0),
		"time of no bytes":          bean([]string{"a"}, 1, 1, vTime, 0, 0),
		"float cut short":           bean([]string{"a"}, 1, 1, vFloat, 0, 0, 0, 0),
	}
}

// TestCodecMalformedNodeLists: each is a typed decode error.
func TestCodecMalformedNodeLists(t *testing.T) {
	for name, data := range malformedNodeLists() {
		r := rbuf{b: data}
		if _, err := r.response(); !errors.Is(err, errCodec) {
			t.Errorf("%s: decode error = %v, want errCodec", name, err)
		}
	}
}

// TestGoldenResponseFrame pins the wire: testdata/golden_response_frame.hex
// is the reply frame the commit before bean rows became cells (9e488c5,
// boxed []Value rows) wrote for fullResponse(). Encoding must reproduce
// it byte for byte under the current wireVersion (version 4 changed the
// batch reply, not a single call's), and decoding it must give
// fullResponse() back.
func TestGoldenResponseFrame(t *testing.T) {
	text, err := os.ReadFile("testdata/golden_response_frame.hex")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	if wireVersion != 4 {
		t.Fatalf("wireVersion = %d: a new version needs a new golden frame, not an edited one", wireVersion)
	}
	if got := frameOf(ftReply, 1, func(w *wbuf) { w.response(fullResponse()) }); !bytes.Equal(got, golden) {
		t.Fatalf("reply frame changed:\n got %x\nwant %x", got, golden)
	}
	payload, err := readFrame(bufio.NewReader(bytes.NewReader(golden)))
	if err != nil {
		t.Fatal(err)
	}
	r := rbuf{b: payload}
	if ft, id := r.byte(), r.uvarint(); ft != ftReply || id != 1 {
		t.Fatalf("frame type %d id %d", ft, id)
	}
	if resp, err := r.response(); err != nil || !reflect.DeepEqual(resp, fullResponse()) {
		t.Fatalf("golden frame decoded to %+v (err %v)", resp, err)
	}
}

// TestCodecRejectsRaggedNode: a node whose value count is not its
// level's field count cannot be encoded — names travel once per bean.
func TestCodecRejectsRaggedNode(t *testing.T) {
	w := getWbuf()
	defer putWbuf(w)
	w.beanPtr(&mvc.UnitBean{UnitID: "u", Fields: []string{"a"}, Nodes: []mvc.Node{{Values: cells("x", "y")}}})
	if w.err == nil {
		t.Fatal("ragged node encoded without error")
	}
	for _, c := range []cell.Cell{{Kind: cell.KTime, Str: "nope"}, {Kind: cell.KTime + 1}} {
		w.err = nil
		if w.cell(c); w.err == nil {
			t.Fatalf("hand-built cell %+v encoded without error", c)
		}
	}
}

// FuzzCodecResponse is FuzzCodecRequest for the response shape.
func FuzzCodecResponse(f *testing.F) {
	w := getWbuf()
	w.response(fullResponse())
	f.Add(append([]byte(nil), w.payload()...))
	putWbuf(w)
	f.Add([]byte{})
	for _, data := range malformedNodeLists() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rbuf{b: data}
		resp, err := r.response()
		if err != nil {
			return
		}
		w := getWbuf()
		w.response(resp)
		if w.err != nil {
			t.Fatalf("decoded response failed to re-encode: %v", w.err)
		}
		enc1 := append([]byte(nil), w.payload()...)
		putWbuf(w)
		r2 := rbuf{b: enc1}
		resp2, err := r2.response()
		if err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
		w2 := getWbuf()
		w2.response(resp2)
		if w2.err != nil {
			t.Fatalf("second re-encode failed: %v", w2.err)
		}
		if !bytes.Equal(enc1, w2.payload()) {
			t.Fatalf("encoding not a fixpoint:\n first %x\nsecond %x", enc1, w2.payload())
		}
		putWbuf(w2)
	})
}

// ---- batch reply ----

// twoItemReply is a level of two units: fullResponse() and a plain
// one-row bean.
func twoItemReply() []*response {
	return []*response{fullResponse(), {Bean: &mvc.UnitBean{UnitID: "u2", Kind: "data",
		Fields: []string{"oid"}, Nodes: []mvc.Node{{Values: cells(int64(7))}}}}}
}

// TestGoldenBatchReplyFrame pins the batch reply:
// testdata/golden_batch_reply_frame.hex is the frame wire version 4 wrote
// for twoItemReply(). Encoding must reproduce it byte for byte, and
// decoding it must give twoItemReply() back.
func TestGoldenBatchReplyFrame(t *testing.T) {
	text, err := os.ReadFile("testdata/golden_batch_reply_frame.hex")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	if wireVersion != 4 {
		t.Fatalf("wireVersion = %d: a new version needs a new golden frame, not an edited one", wireVersion)
	}
	if got := frameOf(ftBatchReply, 1, func(w *wbuf) { w.batchReply(twoItemReply()) }); !bytes.Equal(got, golden) {
		t.Fatalf("batch reply frame changed:\n got %x\nwant %x", got, golden)
	}
	payload, err := readFrame(bufio.NewReader(bytes.NewReader(golden)))
	if err != nil {
		t.Fatal(err)
	}
	r := rbuf{b: payload}
	if ft, id := r.byte(), r.uvarint(); ft != ftBatchReply || id != 1 {
		t.Fatalf("frame type %d id %d", ft, id)
	}
	if items, err := r.batchReply(); err != nil || !reflect.DeepEqual(items, twoItemReply()) {
		t.Fatalf("golden frame decoded to %+v (err %v)", items, err)
	}
}

// malformedBatchReplies are batch reply bodies around the empty response
// (five zero bytes) that lie about their shape. The committed corpus of
// FuzzCodecBatchReply holds each of them.
func malformedBatchReplies() map[string][]byte {
	return map[string][]byte{
		"count past the end":         {3, 5, 0, 0, 0, 0, 0},
		"item length past the end":   {1, 9, 0, 0, 0, 0, 0},
		"trailing bytes inside item": {1, 6, 0, 0, 0, 0, 0, 0},
		"truncated":                  {2, 5, 0, 0, 0, 0, 0, 5, 0, 0},
		"trailing bytes after items": {1, 5, 0, 0, 0, 0, 0, 0},
	}
}

// TestCodecMalformedBatchReplies: each is a typed decode error.
func TestCodecMalformedBatchReplies(t *testing.T) {
	for name, data := range malformedBatchReplies() {
		r := rbuf{b: data}
		if _, err := r.batchReply(); !errors.Is(err, errCodec) {
			t.Errorf("%s: decode error = %v, want errCodec", name, err)
		}
	}
}

// FuzzCodecBatchReply is FuzzCodecResponse for the batch reply: an
// accepted reply re-encodes to bytes that decode and re-encode to
// themselves.
func FuzzCodecBatchReply(f *testing.F) {
	w := getWbuf()
	w.batchReply(twoItemReply())
	f.Add(append([]byte(nil), w.payload()...))
	putWbuf(w)
	f.Add([]byte{0})
	for _, data := range malformedBatchReplies() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rbuf{b: data}
		items, err := r.batchReply()
		if err != nil {
			return
		}
		w := getWbuf()
		w.batchReply(items)
		if w.err != nil {
			t.Fatalf("decoded reply failed to re-encode: %v", w.err)
		}
		enc1 := append([]byte(nil), w.payload()...)
		putWbuf(w)
		r2 := rbuf{b: enc1}
		items2, err := r2.batchReply()
		if err != nil {
			t.Fatalf("re-encoded reply failed to decode: %v", err)
		}
		if len(items2) != len(items) {
			t.Fatalf("%d items re-decoded as %d", len(items), len(items2))
		}
		w2 := getWbuf()
		w2.batchReply(items2)
		if w2.err != nil {
			t.Fatalf("second re-encode failed: %v", w2.err)
		}
		if !bytes.Equal(enc1, w2.payload()) {
			t.Fatalf("encoding not a fixpoint:\n first %x\nsecond %x", enc1, w2.payload())
		}
		putWbuf(w2)
	})
}

// TestBatchReplyItemsOwnTheirBytes: a bean the bean cache keeps from one
// item of a level pins that item's bytes, not the level's. Item 1 of the
// reply is a 1 MiB bean; once only item 0's bean is kept, the heap must
// not hold the 1 MiB.
func TestBatchReplyItemsOwnTheirBytes(t *testing.T) {
	big := &mvc.UnitBean{UnitID: "big", Kind: "data", Fields: []string{"body"},
		Nodes: []mvc.Node{{Values: cells(strings.Repeat("x", 1<<20))}}}
	frame := frameOf(ftBatchReply, 1, func(w *wbuf) {
		w.batchReply([]*response{{Bean: &mvc.UnitBean{UnitID: "small", Kind: "data"}}, {Bean: big}})
	})
	big = nil
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	kept := func() *mvc.UnitBean {
		payload, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatal(err)
		}
		r := rbuf{b: payload}
		r.byte()
		r.uvarint()
		items, err := r.batchReply()
		if err != nil || len(items) != 2 || len(items[1].Bean.Nodes) != 1 {
			t.Fatalf("reply decoded to %+v (err %v)", items, err)
		}
		return items[0].Bean
	}()
	if grown := int64(heap()) - int64(before); grown >= 1<<19 {
		t.Fatalf("keeping item 0's bean keeps %d bytes alive, want item 1's MiB released", grown)
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(frame)
}

// ---- handshake ----

func echoBusiness() mvc.Business {
	return &funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			return &mvc.UnitBean{UnitID: d.ID, Kind: d.Kind,
				Fields: []string{"echo"}, Nodes: []mvc.Node{{Values: cells(inputs["x"])}}}, nil
		},
		execute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.OpResult, error) {
			return &mvc.OpResult{OK: true}, nil
		},
	}
}

// TestFramedNegotiation: a client against a container completes the
// handshake and frames flow over a tracked multiplexed connection.
func TestFramedNegotiation(t *testing.T) {
	_, client, _, art := startApp(t, 4)
	d := art.Repo.Unit("volumeData")
	if _, err := client.ComputeUnit(context.Background(), d, map[string]mvc.Value{"volume": int64(1)}); err != nil {
		t.Fatal(err)
	}
	sent, recv, _ := client.FrameStats()
	if sent == 0 || recv == 0 {
		t.Fatalf("framed transport unused: sent=%d recv=%d", sent, recv)
	}
	h := client.Health()
	if h[0].Conns == 0 {
		t.Fatalf("no multiplexed connections tracked: %+v", h[0])
	}
}

// shortHandshake shrinks handshakeTimeout for one test. Call it before
// starting any container or client: the restore runs after their
// cleanups, so no goroutine reads the variable while it changes.
func shortHandshake(t *testing.T) {
	t.Helper()
	old := handshakeTimeout
	handshakeTimeout = 100 * time.Millisecond
	t.Cleanup(func() { handshakeTimeout = old })
}

// TestWireFramedStrictRejectsLegacyPeer: a peer that does not complete
// the v2 handshake — it hangs up, stays silent, or acks with something
// else — is a call error matching errHandshake that counts against the
// endpoint's breaker after exactly one dial (no redial as another
// protocol), and an idempotent call fails over past it.
func TestWireFramedStrictRejectsLegacyPeer(t *testing.T) {
	shortHandshake(t)
	peers := map[string]func(c net.Conn){
		"eof":     func(c net.Conn) { c.Close() },
		"silence": func(c net.Conn) { io.Copy(io.Discard, c) }, //nolint:errcheck
		"wrong magic": func(c net.Conn) {
			var hs [6]byte
			io.ReadFull(c, hs[:])           //nolint:errcheck
			c.Write([]byte("\x05WRF1\x02")) //nolint:errcheck
			io.Copy(io.Discard, c)          //nolint:errcheck
		},
		// the build before rows went positional: right magic, version 2
		"version 2": func(c net.Conn) {
			var hs [6]byte
			io.ReadFull(c, hs[:])           //nolint:errcheck
			c.Write([]byte("\x05WRF2\x02")) //nolint:errcheck
			io.Copy(io.Discard, c)          //nolint:errcheck
		},
	}
	for name, peer := range peers {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			var accepts atomic.Int64
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					accepts.Add(1)
					go func() {
						defer c.Close()
						peer(c)
					}()
				}
			}()
			d := &descriptor.Unit{ID: "u", Kind: "data"}

			client, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			_, err = client.ComputeUnit(context.Background(), d, nil)
			if !errors.Is(err, errHandshake) {
				t.Fatalf("err = %v, want errHandshake", err)
			}
			if h := client.Health(); h[0].Failures != 1 || h[0].Conns != 0 {
				t.Fatalf("breaker did not count the handshake failure: %+v", h[0])
			}
			if n := accepts.Load(); n != 1 {
				t.Fatalf("peer saw %d dials for one call, want 1", n)
			}

			ctr := NewContainer(echoBusiness(), 4)
			good, err := ctr.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ctr.Close()
			both, err := Dial(ln.Addr().String(), good)
			if err != nil {
				t.Fatal(err)
			}
			defer both.Close()
			bean, err := both.ComputeUnit(context.Background(), d, map[string]mvc.Value{"x": int64(7)})
			if err != nil {
				t.Fatalf("no failover past the non-v2 peer: %v", err)
			}
			if bean.Nodes[0].Values[0].Value() != int64(7) {
				t.Fatalf("bean = %+v", bean)
			}
			if h := both.Health(); h[0].Failures != 1 {
				t.Fatalf("failover did not charge the non-v2 endpoint: %+v", h[0])
			}
		})
	}
}

// TestContainerHandshakeBounded: an inbound connection that never sends
// the magic — silent, short of six bytes, or another protocol — must not
// hold a handler goroutine and a tracked connection until Close. The
// container hangs up within handshakeTimeout (at once on a non-magic
// preamble) and is quiesced afterwards.
func TestContainerHandshakeBounded(t *testing.T) {
	shortHandshake(t)
	ctr := NewContainer(echoBusiness(), 4)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	for name, preamble := range map[string]string{
		"silent":  "",
		"partial": "\x05WR",
		"garbage": "GET / HTTP/1.1\r\n\r\n",
		"v2":      "\x05WRF2\x02",
	} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte(preamble)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		var b [1]byte
		_, err = c.Read(b[:])
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s peer still connected after handshakeTimeout (read err = %v)", name, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctr.mu.Lock()
		tracked := len(ctr.conns)
		ctr.mu.Unlock()
		if tracked == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still tracked after their peers were dropped", tracked)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ctr.Quiesced() {
		t.Fatal("container not quiesced after dropping non-v2 peers")
	}
}

// frameOf builds one frame payload: type, request ID, encoded body.
func frameOf(ft byte, id uint64, body func(w *wbuf)) []byte {
	w := getWbuf()
	defer putWbuf(w)
	w.byte(ft)
	w.uvarint(id)
	body(w)
	return append([]byte(nil), w.frame()...)
}

// FuzzServeFramed feeds arbitrary bytes to the container's frame loop
// after a valid handshake: frame length, frame type, request ID and the
// batch fan-out are reached here, not through the body codec fuzzers.
// Whatever arrives, the container must not panic, and once the peer
// hangs up the handler returns with the connection closed.
func FuzzServeFramed(f *testing.F) {
	call := frameOf(ftCall, 1, func(w *wbuf) { w.request(fullRequest()) })
	batch := frameOf(ftBatch, 2, func(w *wbuf) {
		w.batchRequest(&batchRequest{DeadlineMS: 50, Calls: []batchCall{
			{SpanID: 1, Descriptor: &descriptor.Unit{ID: "a", Kind: "data"}},
			{SpanID: 2, Descriptor: &descriptor.Unit{ID: "b", Kind: "data"}},
		}})
	})
	f.Add(call)
	f.Add(append(append([]byte(nil), batch...), call...))
	f.Add(call[:len(call)/2])
	f.Add(frameOf(ftReply, 3, func(w *wbuf) { w.response(fullResponse()) }))
	f.Add(frameOf(ftBatchReply, 5, func(w *wbuf) { w.batchReply(twoItemReply()) }))
	f.Add(frameOf(9, 4, func(w *wbuf) {}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, ftCall})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		ctr := NewContainer(echoBusiness(), 4)
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			ctr.serveConn(server)
		}()
		var ack [6]byte
		if _, err := client.Write(handshakeBytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, ack[:]); err != nil || !isHandshake(ack[:]) {
			t.Fatalf("handshake: ack % x, err %v", ack, err)
		}
		// Replies block on the pipe until read; drain them.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			io.Copy(io.Discard, client) //nolint:errcheck
		}()
		client.Write(data) //nolint:errcheck // the container may hang up mid-stream
		client.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("handler still running after the peer hung up")
		}
		<-drained
		if _, err := server.Write([]byte{0}); !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("server side left open: write err = %v", err)
		}
		if !ctr.Quiesced() {
			t.Fatal("container not quiesced after the connection ended")
		}
	})
}

// ---- level batching ----

func TestBatchComputeUnits(t *testing.T) {
	_, client, _, art := startApp(t, 8)
	sent0, recv0, _ := client.FrameStats()
	d := art.Repo.Unit("volumeData")
	h := art.Repo.Unit("issuesPapers")
	res := client.ComputeUnits(context.Background(), []mvc.UnitCall{
		{D: d, Inputs: map[string]mvc.Value{"volume": int64(1)}},
		{D: h, Inputs: map[string]mvc.Value{"parent": int64(1)}},
		{D: d, Inputs: map[string]mvc.Value{"volume": int64(2)}},
	})
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if res[0].Bean.Nodes[0].Values[1].Value() != "TODS Volume 27" {
		t.Fatalf("item 0 = %+v", res[0].Bean)
	}
	if len(res[1].Bean.Nodes) != 2 || len(res[1].Bean.Nodes[0].Children) == 0 {
		t.Fatal("hierarchical bean lost in batch transport")
	}
	// The whole level crossed in one batch frame and came back in one
	// reply frame, not one frame per unit.
	sent, recv, inflight := client.FrameStats()
	if sent-sent0 != 1 || recv-recv0 != 1 || inflight != 0 {
		t.Fatalf("a 3-unit level cost %d frames sent, %d received, %d in flight; want 1, 1, 0", sent-sent0, recv-recv0, inflight)
	}
}

// TestBatchItemErrorIsolated: one failing unit must not poison its level
// peers, and its error keeps the remote-call shape.
func TestBatchItemErrorIsolated(t *testing.T) {
	ctr := NewContainer(&funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			if d.ID == "bad" {
				return nil, fmt.Errorf("no such entity")
			}
			return &mvc.UnitBean{UnitID: d.ID}, nil
		},
	}, 4)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res := client.ComputeUnits(context.Background(), []mvc.UnitCall{
		{D: &descriptor.Unit{ID: "ok1", Kind: "data"}},
		{D: &descriptor.Unit{ID: "bad", Kind: "data"}},
		{D: &descriptor.Unit{ID: "ok2", Kind: "data"}},
	})
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("healthy items failed: %v / %v", res[0].Err, res[2].Err)
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "ejb: remote: no such entity") {
		t.Fatalf("item error = %v", res[1].Err)
	}
}

// TestBatchFailoverMidKill: a batch whose connection dies mid-flight
// fails over: the whole level re-runs on the next container.
func TestBatchFailoverMidKill(t *testing.T) {
	var calls1 atomic.Int64
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	ctr1 := NewContainer(&funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			calls1.Add(1)
			started <- struct{}{}
			<-release
			return &mvc.UnitBean{UnitID: d.ID}, nil
		},
	}, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &trackListener{Listener: ln}
	ctr1.serveOn(tl)
	defer ctr1.Close()
	defer close(release)

	ctr2 := NewContainer(&funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			return &mvc.UnitBean{UnitID: d.ID, Kind: "from2"}, nil
		},
	}, 8)
	addr2, err := ctr2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr2.Close()

	client, err := Dial(ln.Addr().String(), addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var res []mvc.UnitResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = client.ComputeUnits(context.Background(), []mvc.UnitCall{
			{D: &descriptor.Unit{ID: "a", Kind: "data"}},
			{D: &descriptor.Unit{ID: "b", Kind: "data"}},
			{D: &descriptor.Unit{ID: "c", Kind: "data"}},
		})
	}()
	// Wait until container 1 is actually computing the batch, then crash
	// its connections out from under it.
	<-started
	tl.closeAll()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not fail over")
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d after failover: %v", i, r.Err)
		}
		if r.Bean.Kind != "from2" {
			t.Fatalf("item %d not recomputed on container 2: %+v", i, r.Bean)
		}
	}
	if calls1.Load() == 0 {
		t.Fatal("container 1 never saw the batch")
	}
}

// TestCancelDoesNotKillSharedConn: canceling one call's context must not
// tear down the shared multiplexed connection, fail unrelated in-flight
// calls on it, or count a breaker failure — the container did nothing
// wrong; the frame is merely deregistered.
func TestCancelDoesNotKillSharedConn(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	ctr := NewContainer(&funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			started <- struct{}{}
			<-release
			return &mvc.UnitBean{UnitID: d.ID}, nil
		},
	}, 4)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.conns = 1 // both calls share one connection

	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, err := client.ComputeUnit(ctx, &descriptor.Unit{ID: "a", Kind: "data"}, nil)
		canceled <- err
	}()
	survivor := make(chan error, 1)
	go func() {
		_, err := client.ComputeUnit(context.Background(), &descriptor.Unit{ID: "b", Kind: "data"}, nil)
		survivor <- err
	}()
	<-started
	<-started // both frames in flight on the shared connection
	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-survivor; err != nil {
		t.Fatalf("in-flight peer failed after unrelated cancel: %v", err)
	}
	h := client.Health()
	if h[0].State != BreakerClosed || h[0].Opens != 0 || h[0].Failures != 0 {
		t.Fatalf("breaker counted the cancel as a container failure: %+v", h[0])
	}
	if h[0].Conns != 1 {
		t.Fatalf("shared connection torn down by cancel: conns = %d, want 1", h[0].Conns)
	}
}

// TestBatchCancelKeepsConnHealthy: TestCancelDoesNotKillSharedConn for
// the level-batched path — canceling a batch deregisters its frame but
// leaves the connection and breaker untouched.
func TestBatchCancelKeepsConnHealthy(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	ctr := NewContainer(&funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			started <- struct{}{}
			<-release
			return &mvc.UnitBean{UnitID: d.ID}, nil
		},
	}, 8)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.conns = 1

	ctx, cancel := context.WithCancel(context.Background())
	resCh := make(chan []mvc.UnitResult, 1)
	go func() {
		resCh <- client.ComputeUnits(ctx, []mvc.UnitCall{
			{D: &descriptor.Unit{ID: "a", Kind: "data"}},
			{D: &descriptor.Unit{ID: "b", Kind: "data"}},
		})
	}()
	<-started // the container is computing the batch
	cancel()
	res := <-resCh
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("item %d err = %v, want context.Canceled", i, r.Err)
		}
	}
	close(release)
	// The same connection must still carry a fresh call.
	if _, err := client.ComputeUnit(context.Background(), &descriptor.Unit{ID: "c", Kind: "data"}, nil); err != nil {
		t.Fatalf("call after batch cancel: %v", err)
	}
	h := client.Health()
	if h[0].State != BreakerClosed || h[0].Opens != 0 || h[0].Failures != 0 {
		t.Fatalf("breaker counted the batch cancel: %+v", h[0])
	}
	if h[0].Conns != 1 {
		t.Fatalf("conns = %d after batch cancel, want the original 1", h[0].Conns)
	}
}

// TestBatchReplyCountMismatch: a container that answers a 2-item batch
// with a 1-item reply must fail every item and the connection, not
// complete the batch with a silently missing bean (Bean == nil,
// Err == nil).
func TestBatchReplyCountMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var hs [6]byte
		if _, err := io.ReadFull(c, hs[:]); err != nil {
			return
		}
		c.Write(handshakeBytes()) //nolint:errcheck
		br := bufio.NewReader(c)
		payload, err := readFrame(br)
		if err != nil {
			return
		}
		r := rbuf{b: payload}
		r.byte() // ftBatch
		id := r.uvarint()
		c.Write(frameOf(ftBatchReply, id, func(w *wbuf) { //nolint:errcheck
			w.batchReply([]*response{{Bean: &mvc.UnitBean{UnitID: "short"}}})
		}))
		// Hold the connection open: the client must detect the short
		// reply itself, not rely on a close.
		io.Copy(io.Discard, br) //nolint:errcheck
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res := client.ComputeUnits(context.Background(), []mvc.UnitCall{
		{D: &descriptor.Unit{ID: "a", Kind: "data"}},
		{D: &descriptor.Unit{ID: "b", Kind: "data"}},
	})
	for i, r := range res {
		if !errors.Is(r.Err, errCodec) || r.Bean != nil {
			t.Fatalf("item %d of a short reply: %+v, want errCodec", i, r)
		}
	}
	if h := client.Health(); h[0].Conns != 0 {
		t.Fatalf("conns = %d after a short reply, want the connection failed", h[0].Conns)
	}
}

// TestManyInFlightOnOneConn: the multiplexed transport must carry many
// concurrent calls over a single connection budget without serializing
// them.
func TestManyInFlightOnOneConn(t *testing.T) {
	var peak atomic.Int64
	var cur atomic.Int64
	ctr := NewContainer(&funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			cur.Add(-1)
			return &mvc.UnitBean{UnitID: d.ID}, nil
		},
	}, 64)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.conns = 1

	var wg sync.WaitGroup
	const K = 16
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.ComputeUnit(context.Background(), &descriptor.Unit{ID: "u", Kind: "data"}, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if h := client.Health(); h[0].Conns != 1 {
		t.Fatalf("conns = %d, want 1", h[0].Conns)
	}
	if p := peak.Load(); p < 4 {
		t.Fatalf("peak concurrency %d over one multiplexed connection; calls look serialized", p)
	}
}

// ---- benchmarks (published as BENCH_wire.json by CI) ----

func benchClient(b *testing.B, latency time.Duration) (*RemoteBusiness, *descriptor.Unit) {
	b.Helper()
	ctr := NewContainer(&funcBusiness{
		compute: func(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
			return &mvc.UnitBean{UnitID: d.ID, Kind: "data",
				Fields: []string{"oid", "Title"}, Nodes: []mvc.Node{{Values: cells(int64(1), "T")}}}, nil
		},
	}, 64)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ctr.Close() })
	client, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(client.Close)
	client.latency = latency
	return client, &descriptor.Unit{ID: "u", Kind: "data",
		Outputs: []descriptor.FieldDef{{Name: "Title", Column: "title"}}}
}

func BenchmarkRemoteUnitFramed(b *testing.B) {
	client, d := benchClient(b, 0)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ComputeUnit(ctx, d, map[string]mvc.Value{"x": int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteLevelFramedBatch runs one 8-unit level per iteration,
// the E10 shape.
func BenchmarkRemoteLevelFramedBatch(b *testing.B) {
	client, d := benchClient(b, 0)
	ctx := context.Background()
	calls := make([]mvc.UnitCall, 8)
	for i := range calls {
		calls[i] = mvc.UnitCall{D: d, Inputs: map[string]mvc.Value{"x": int64(i)}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, r := range client.ComputeUnits(ctx, calls) {
			if r.Err != nil {
				b.Fatalf("item %d: %v", j, r.Err)
			}
		}
	}
}

// ---- frame lengths are claims ----

// allocatedBy runs f and returns the bytes the process allocated meanwhile.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameGrowsWithWhatArrives: a frame longer than frameTrust is
// read whole, and a header that claims maxFrame and then delivers nothing
// costs what arrived, not what it claimed.
func TestReadFrameGrowsWithWhatArrives(t *testing.T) {
	body := make([]byte, 3*frameTrust+17)
	for i := range body {
		body[i] = byte(i * 31)
	}
	wire := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	got, err := readFrame(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("long frame: %d bytes (err %v), want %d", len(got), err, len(body))
	}
	lie := append(binary.AppendUvarint(nil, maxFrame), "only this"...)
	var buf []byte
	spent := allocatedBy(func() { buf, err = readFrame(bufio.NewReader(bytes.NewReader(lie))) })
	if err == nil || buf != nil {
		t.Fatalf("truncated frame read as %d bytes, err %v", len(buf), err)
	}
	if spent >= 2<<20 {
		t.Fatalf("a %d-byte header cost %d bytes of allocation", len(lie)-len("only this"), spent)
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(binary.AppendUvarint(nil, maxFrame+1)))); err == nil {
		t.Fatal("frame over maxFrame accepted")
	}
}

// TestLyingFrameHeaderIsCheap: on both ends of the wire — the client's
// demux goroutine and the container's frame loop — a peer that completes
// the handshake, claims a maxFrame payload and hangs up is an ordinary
// connection failure that allocated under 2 MiB.
func TestLyingFrameHeaderIsCheap(t *testing.T) {
	lie := binary.AppendUvarint(nil, maxFrame)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var hs [6]byte
		if _, err := io.ReadFull(c, hs[:]); err != nil {
			return
		}
		c.Write(handshakeBytes()) //nolint:errcheck
		if _, err := readFrame(bufio.NewReader(c)); err != nil {
			return
		}
		c.Write(lie) //nolint:errcheck
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	spent := allocatedBy(func() {
		_, err = client.ComputeUnit(context.Background(), &descriptor.Unit{ID: "u", Kind: "data"}, nil)
	})
	if err == nil {
		t.Fatal("call answered by a truncated frame succeeded")
	}
	if spent >= 2<<20 {
		t.Fatalf("client demux allocated %d bytes on a lying header", spent)
	}

	ctr := NewContainer(echoBusiness(), 4)
	addr, err := ctr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	spent = allocatedBy(func() {
		c.Write(append(handshakeBytes(), lie...)) //nolint:errcheck
		c.(*net.TCPConn).CloseWrite()             //nolint:errcheck
		var ack [7]byte
		if n, err := io.ReadFull(c, ack[:]); n != 6 || err != io.ErrUnexpectedEOF {
			t.Errorf("container sent %d bytes (err %v), want the 6-byte ack and a hang-up", n, err)
		}
	})
	if spent >= 2<<20 {
		t.Fatalf("container frame loop allocated %d bytes on a lying header", spent)
	}
}
