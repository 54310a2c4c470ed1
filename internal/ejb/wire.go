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

	"webmlgo/internal/mvc"
)

// The wire protocol: framed, multiplexed binary exchange.
//
// Handshake: the client opens with the 6-byte magic
//
//	0x05 'W' 'R' 'F' '2' <version>
//
// and the container echoes the same form back with its own version.
// Both sides bound the exchange by handshakeTimeout, and either side
// closes the connection on anything but the magic followed by its own
// version (8 since a reply bean leaves out the schema of the descriptor
// its call carried, and an item error says whether the container's
// deadline caused it: a build of another version fails the handshake,
// it is never decoded): there is no other protocol to fall back to.
//
// Frames (both directions, after the handshake):
//
//	uvarint payloadLen | payload
//	payload = frameType byte | uvarint requestID | body
//
// Body encodings live in codec.go. Every request frame is answered by
// exactly one reply frame, and any other frame type drops the
// connection. Many frames are in flight per connection: the client write
// side is mutex-serialized, a demux goroutine routes reply bodies by
// request ID, and each caller decodes its own against its calls.
const (
	wireVersion = 8

	// Types 1 and 3 were wire version 5's single-call request and reply.
	ftBatch      byte = 2 // body: batchRequest (a level of units, an operation or a page)
	ftBatchReply byte = 4 // body: batchReply (one response per item)

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

// errHandshake reports that the far side did not complete the
// handshake (connection dropped, silence past handshakeTimeout, or a
// non-magic ack) — a transport failure of the endpoint.
var errHandshake = errors.New("ejb: wire handshake failed")

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
	pending map[uint64]chan []byte
	nextID  uint64
	dead    bool
	deadErr error
}

// framedDial opens a connection: TCP dial, handshake, demux
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
		pending: make(map[uint64]chan []byte),
	}
	go m.readLoop()
	return m, nil
}

// readLoop is the demux goroutine: it reads frames until the connection
// dies and routes each reply body to its registered waiter by request
// ID.
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
		ft, id := r.byte(), r.uvarint()
		if ft != ftBatchReply || r.err != nil {
			m.fail(fmt.Errorf("ejb: unexpected frame type %d", ft))
			return
		}
		m.route(id, payload[r.off:])
	}
}

// route delivers one reply body. Channels hold the one reply they expect
// and are only touched under the mutex, so sends never block and never
// race fail's close.
func (m *mconn) route(id uint64, body []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch, ok := m.pending[id]
	if !ok {
		return // abandoned call (e.g. context cancel); drop the late reply
	}
	delete(m.pending, id)
	ch <- body
}

// replyChans recycles the one-reply channels of answered frames. A
// channel goes back only once its reply was received: it is empty, and
// route, which removed it from pending before sending, holds it no more.
var replyChans = sync.Pool{New: func() any { return make(chan []byte, 1) }}

// register allocates a request ID and the channel its reply arrives on.
func (m *mconn) register() (uint64, chan []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return 0, nil, m.deadErr
	}
	m.nextID++
	id := m.nextID
	ch := replyChans.Get().(chan []byte)
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

// batch sends one request frame and waits for the one reply frame, whose
// responses are one per call, in call order, decoded against the calls;
// a reply of any other shape is errCodec and fails the connection. A deadline expiry is a transport
// failure: the connection cannot tell a hung container from a slow one,
// so it is killed and every in-flight frame fails over — socket-deadline
// semantics. A cancel abandons only this frame.
func (m *mconn) batch(ctx context.Context, breq *batchRequest) ([]response, error) {
	id, ch, err := m.register()
	if err != nil {
		return nil, err
	}
	deadline, _ := ctx.Deadline()
	w := getWbuf()
	w.byte(ftBatch)
	w.uvarint(id)
	w.batchRequest(breq)
	err = w.err
	if err == nil {
		err = m.send(w, deadline)
	}
	putWbuf(w)
	if err != nil {
		m.fail(err)
		return nil, fmt.Errorf("ejb: send: %w", err)
	}
	body, ok, err := mvc.Await(ctx, ch)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		m.fail(errConnClosed)
		return nil, fmt.Errorf("ejb: receive: %w awaiting reply", err)
	case err != nil:
		m.deregister(id)
		return nil, fmt.Errorf("ejb: receive: %w", err)
	case !ok:
		return nil, fmt.Errorf("ejb: receive: %w", m.deadError())
	}
	replyChans.Put(ch)
	r := rbuf{b: body}
	items, err := r.batchReply(breq.Calls)
	if err != nil {
		m.fail(err)
		return nil, fmt.Errorf("ejb: receive: %w", err)
	}
	return items, nil
}

func (m *mconn) deadError() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.deadErr != nil {
		return m.deadErr
	}
	return errConnClosed
}
