package ejb

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Wire protocol v2: framed, multiplexed binary exchange.
//
// Handshake: the client opens with the 6-byte magic
//
//	0x05 'W' 'R' 'F' '2' <version>
//
// and the container echoes the same form back with its own version.
// Both sides bound the exchange by handshakeTimeout, and either side
// closes the connection on anything but the magic followed by its own
// version (4 since a batch is answered by one reply frame: a build of
// another version fails the handshake, it is never decoded): there is no
// other protocol to fall back to.
//
// Frames (both directions, after the handshake):
//
//	uvarint payloadLen | payload
//	payload = frameType byte | uvarint requestID | body
//
// Body encodings live in codec.go. Every request frame is answered by
// exactly one reply frame. Many frames are in flight per connection: the
// client write side is mutex-serialized, a demux goroutine routes
// replies by request ID.
const (
	wireVersion = 4

	ftCall       byte = 1 // body: request
	ftBatch      byte = 2 // body: batchRequest
	ftReply      byte = 3 // body: response
	ftBatchReply byte = 4 // body: batchReply

	// maxFrame bounds one frame's payload; larger lengths mean a
	// corrupt or hostile stream.
	maxFrame = 64 << 20

	// frameTrust is how much of a frame readFrame allocates before any of
	// its payload has arrived.
	frameTrust = 1 << 20
)

// handshakeTimeout bounds each side's wait for the other's half of the
// handshake: the client's wait for the ack when the call itself carries
// no deadline, and the container's wait for the magic, so a silent peer
// can wedge neither a first call nor a handler goroutine. Variable for
// tests.
var handshakeTimeout = 2 * time.Second

var hsMagic = [5]byte{0x05, 'W', 'R', 'F', '2'}

func handshakeBytes() []byte {
	return []byte{hsMagic[0], hsMagic[1], hsMagic[2], hsMagic[3], hsMagic[4], wireVersion}
}

func isHandshake(b []byte) bool {
	return len(b) >= 6 && b[0] == hsMagic[0] && b[1] == hsMagic[1] &&
		b[2] == hsMagic[2] && b[3] == hsMagic[3] && b[4] == hsMagic[4] && b[5] == wireVersion
}

// errHandshake reports that the far side did not complete the wire-v2
// handshake (connection dropped, silence past handshakeTimeout, or a
// non-magic ack) — a transport failure of the endpoint.
var errHandshake = errors.New("ejb: wire v2 handshake failed")

// errConnClosed is the transport error surfaced to calls whose
// connection died (fails all in-flight frames).
var errConnClosed = errors.New("ejb: connection closed")

// readFrame reads one length-prefixed frame payload. The length is the
// peer's claim: at most frameTrust bytes are allocated on its word (one
// allocation for every ordinary frame), and past that the buffer at most
// doubles with the bytes that have actually arrived.
func readFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("ejb: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, min(n, frameTrust))
	for got := 0; ; {
		if _, err := io.ReadFull(br, buf[got:]); err != nil {
			return nil, err
		}
		if got = len(buf); uint64(got) == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-uint64(got), uint64(got)))...)
	}
}

// demuxMsg is one routed reply frame: resp for an ftReply, items for an
// ftBatchReply (one response per batch item, in call order).
type demuxMsg struct {
	resp  *response
	items []*response
}

// wireStats aggregates frame counters across an endpoint set (owned by
// RemoteBusiness; nil-safe).
type wireStats struct {
	framesSent func()
	framesRecv func()
}

func (s *wireStats) sent() {
	if s != nil && s.framesSent != nil {
		s.framesSent()
	}
}

func (s *wireStats) recv() {
	if s != nil && s.framesRecv != nil {
		s.framesRecv()
	}
}

// mconn is one multiplexed client connection: many in-flight frames,
// one demux goroutine. A connection failure — read error, write error,
// or a call deadline expiring — fails every pending frame at once; the
// per-call failover loop above then retries idempotent reads on the
// next endpoint (operations are never re-sent).
type mconn struct {
	c     net.Conn
	gen   uint64
	stats *wireStats

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan demuxMsg
	nextID  uint64
	dead    bool
	deadErr error
}

// framedDial opens a wire-v2 connection: TCP dial, handshake, demux
// goroutine. A peer that does not answer the handshake returns an error
// wrapping errHandshake, with the connection closed.
func framedDial(addr string, gen uint64, deadline time.Time, stats *wireStats) (*mconn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ejb: dial %s: %w", addr, err)
	}
	ackBy := time.Now().Add(handshakeTimeout)
	if !deadline.IsZero() && deadline.Before(ackBy) {
		ackBy = deadline
	}
	c.SetDeadline(ackBy) //nolint:errcheck // failure surfaces on the I/O below
	var ack [6]byte
	_, err = c.Write(handshakeBytes())
	if err == nil {
		_, err = io.ReadFull(c, ack[:])
	}
	if err == nil && !isHandshake(ack[:]) {
		err = fmt.Errorf("ack % x is not the magic", ack)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("%w: %s: %v", errHandshake, addr, err)
	}
	c.SetDeadline(time.Time{}) //nolint:errcheck // failure surfaces on the I/O below
	m := &mconn{
		c:       c,
		gen:     gen,
		stats:   stats,
		pending: make(map[uint64]chan demuxMsg),
	}
	go m.readLoop()
	return m, nil
}

// readLoop is the demux goroutine: it reads frames until the connection
// dies and routes each reply to its registered waiter by request ID.
func (m *mconn) readLoop() {
	br := bufio.NewReader(m.c)
	for {
		payload, err := readFrame(br)
		if err != nil {
			m.fail(errConnClosed)
			return
		}
		m.stats.recv()
		r := rbuf{b: payload}
		ft := r.byte()
		id := r.uvarint()
		var msg demuxMsg
		switch ft {
		case ftReply:
			msg.resp, err = r.response()
		case ftBatchReply:
			msg.items, err = r.batchReply()
		default:
			err = fmt.Errorf("ejb: unexpected frame type %d", ft)
		}
		if err != nil {
			m.fail(err)
			return
		}
		m.route(id, msg)
	}
}

// route delivers one reply. Channels hold the one reply they expect and
// are only touched under the mutex, so sends never block and never race
// fail's close.
func (m *mconn) route(id uint64, msg demuxMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.pending[id]
	if !ok {
		return // abandoned call (e.g. context cancel); drop the late reply
	}
	delete(m.pending, id)
	ch <- msg
}

// register allocates a request ID and the channel its reply arrives on.
func (m *mconn) register() (uint64, chan demuxMsg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return 0, nil, m.deadErr
	}
	m.nextID++
	id := m.nextID
	ch := make(chan demuxMsg, 1)
	m.pending[id] = ch
	return id, ch, nil
}

// deregister abandons a pending call (its reply, if any, is dropped by
// route). Used on context cancellation without killing the connection.
func (m *mconn) deregister(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// fail kills the connection and wakes every in-flight frame: each
// waiter's channel closes, which it reads as a transport error.
func (m *mconn) fail(err error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.deadErr = err
	for id, ch := range m.pending {
		close(ch)
		delete(m.pending, id)
	}
	m.mu.Unlock()
	m.c.Close()
}

func (m *mconn) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// pendingCount reports how many requests are awaiting replies.
func (m *mconn) pendingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// send writes one frame, bounding the write by the call deadline.
func (m *mconn) send(w *wbuf, deadline time.Time) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if !deadline.IsZero() {
		m.c.SetWriteDeadline(deadline) //nolint:errcheck // failure surfaces on the write
	} else {
		m.c.SetWriteDeadline(time.Time{}) //nolint:errcheck // failure surfaces on the write
	}
	if _, err := m.c.Write(w.frame()); err != nil {
		return err
	}
	m.stats.sent()
	return nil
}

// call runs one request/response pair over the multiplexed connection.
func (m *mconn) call(req *request, deadline time.Time, cancel <-chan struct{}) (*response, error) {
	msg, err := m.exchange(ftCall, deadline, cancel, req.Kind, func(w *wbuf) { w.request(req) })
	if err == nil && msg.resp == nil {
		m.fail(errCodec)
		err = fmt.Errorf("ejb: receive: %w", errCodec)
	}
	return msg.resp, err
}

// batch submits one level's unit computations as a single frame and
// returns the one reply frame's responses, one per call in call order.
// A reply of any other shape is errCodec and fails the connection.
func (m *mconn) batch(breq *batchRequest, deadline time.Time, cancel <-chan struct{}) ([]*response, error) {
	msg, err := m.exchange(ftBatch, deadline, cancel, "batch", func(w *wbuf) { w.batchRequest(breq) })
	if err == nil && (msg.resp != nil || len(msg.items) != len(breq.Calls)) {
		m.fail(errCodec)
		err = fmt.Errorf("ejb: receive: %w", errCodec)
	}
	return msg.items, err
}

// exchange sends one request frame of type ft, its body written by body,
// and waits for the one reply frame. A deadline expiry is a transport
// failure: the connection cannot tell a hung container from a slow one,
// so it is killed and every in-flight frame fails over — socket-deadline
// semantics. deadline is the deadline of the context whose Done channel
// is cancel, so cancel fires at that instant and no timer of its own is
// needed; what names the awaited reply in the error.
func (m *mconn) exchange(ft byte, deadline time.Time, cancel <-chan struct{}, what string, body func(*wbuf)) (demuxMsg, error) {
	id, ch, err := m.register()
	if err != nil {
		return demuxMsg{}, err
	}
	w := getWbuf()
	w.byte(ft)
	w.uvarint(id)
	body(w)
	err = w.err
	if err == nil {
		err = m.send(w, deadline)
	}
	putWbuf(w)
	if err != nil {
		m.fail(err)
		return demuxMsg{}, fmt.Errorf("ejb: send: %w", err)
	}
	select {
	case msg, ok := <-ch:
		if !ok {
			return demuxMsg{}, fmt.Errorf("ejb: receive: %w", m.deadError())
		}
		return msg, nil
	case <-cancel:
		// A context whose deadline drove the call is done from that
		// instant on: the deadline semantic (transport failure) wins over
		// a plain cancel.
		if !deadline.IsZero() && time.Until(deadline) <= 0 {
			m.fail(errConnClosed)
			return demuxMsg{}, fmt.Errorf("ejb: receive: deadline exceeded awaiting %s", what)
		}
		m.deregister(id)
		return demuxMsg{}, fmt.Errorf("ejb: receive: %w", context.Canceled)
	}
}

func (m *mconn) deadError() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.deadErr != nil {
		return m.deadErr
	}
	return errConnClosed
}
