package main

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// numClients is the number of keep-alive connections the generator
// drives: one per processor of the box the rates were frozen on.
const numClients = 2

// client is one keep-alive HTTP/1.1 connection. It writes requests by
// hand and parses responses with net/http, so the generator's cost per
// request is small and constant; redirects are never followed.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	out  []byte
	body bytes.Buffer
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{addr: addr, conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// do sends one GET and returns the status and the body, which is valid
// until the next call. A transport error leaves a fresh connection behind.
func (c *client) do(path, cookie string) (int, []byte, error) {
	c.out = append(c.out[:0], "GET "...)
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.addr...)
	c.out = append(c.out, "\r\n"...)
	if cookie != "" {
		c.out = append(c.out, "Cookie: WSESSION="...)
		c.out = append(c.out, cookie...)
		c.out = append(c.out, "\r\n"...)
	}
	c.out = append(c.out, "\r\n"...)
	status, err := c.roundTrip()
	if err != nil {
		c.conn.Close()
		if conn, derr := net.Dial("tcp", c.addr); derr == nil {
			c.conn = conn
			c.br.Reset(conn)
		}
		return 0, nil, err
	}
	return status, c.body.Bytes(), nil
}

func (c *client) roundTrip() (int, error) {
	// The server's request budget is 5 s; a response that takes twice that
	// is a failure, not something to wait for.
	if err := c.conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := c.conn.Write(c.out); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// driver sends a workload's stream to the stack and hands every response
// to the verifier.
type driver struct {
	strm    *stream
	cookies []string
	ver     *verifier
	seed    int64
	opSeq   atomic.Int64
	// cursor is the stream position the next closed or open phase starts
	// at: the phases of a run send consecutive stretches of one stream.
	cursor  int
	clients [numClients]*client
	workers [numClients]workerState
}

func newDriver(addr string, strm *stream, cookies []string, ver *verifier, seed int64) (*driver, error) {
	d := &driver{strm: strm, cookies: cookies, ver: ver, seed: seed}
	for i := range d.clients {
		c, err := dial(addr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients[i] = c
	}
	return d, nil
}

func (d *driver) close() {
	for _, c := range d.clients {
		if c != nil {
			c.close()
		}
	}
}

// send issues one request on client ci and reports whether the response
// was verified correct, and its body size.
func (d *driver) send(ci int, r request) (bool, int) {
	c, w := d.clients[ci], &d.workers[ci]
	cookie := ""
	if r.Cookie >= 0 {
		cookie = d.cookies[r.Cookie]
	}
	if !r.Op {
		t := &d.strm.targets[r.Idx]
		status, body, err := c.do(t.Path, cookie)
		return d.ver.checkGet(w, int(r.Idx), t, status, body, err), len(body)
	}
	op := &d.strm.ops[r.Idx]
	name := "wm" + strconv.FormatInt(d.seed, 10) + "x" + strconv.FormatInt(d.opSeq.Add(1), 10)
	w.path = append(w.path[:0], "/op/"...)
	w.path = append(w.path, op.ID...)
	w.path = append(w.path, "?oid="...)
	w.path = strconv.AppendInt(w.path, int64(r.OID), 10)
	w.path = append(w.path, "&name="...)
	w.path = append(w.path, name...)
	wr := d.ver.beginWrite(op, int(r.OID), name)
	status, body, err := c.do(string(w.path), cookie)
	return d.ver.checkOp(w, wr, status, err), len(body)
}

// phaseResult is what one phase measured.
type phaseResult struct {
	Attempted int
	OK        int
	Ops       int
	Bytes     int64
	Elapsed   time.Duration
	// Open phase and replay only, one entry per request in due order:
	// latency (ms), how late the generator sent it with a free connection
	// (ms), and whether the request was an operation. A failed request has
	// Lat < 0.
	Lat  []float64
	Late []float64
	IsOp []bool
	// Replay only: the size of each response body.
	Sizes []int
}

// closed runs the closed loop: each client sends its next request when the
// previous one completes, until dur has passed. Client c takes the stream
// entries cursor+c, cursor+c+numClients, ...
func (d *driver) closed(dur time.Duration) phaseResult {
	var res phaseResult
	off, most := d.cursor, 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var att, ok, ops int
			var nbytes int64
			for i := off + ci; time.Now().Before(deadline); i += numClients {
				r := d.strm.at(i)
				good, n := d.send(ci, r)
				att++
				nbytes += int64(n)
				if good {
					ok++
				}
				if r.Op {
					ops++
				}
			}
			mu.Lock()
			most = max(most, att)
			res.Attempted += att
			res.OK += ok
			res.Ops += ops
			res.Bytes += nbytes
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	d.cursor += numClients * most
	return res
}

// arrivals returns the due offsets of a seeded Poisson process of the
// given rate over dur.
func arrivals(rate float64, dur time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return due
		}
		due = append(due, at)
	}
}

// openGrace is how long past the last due instant the open phase lets a
// backlog drain before it counts what is left as failed.
const openGrace = 10 * time.Second

// sleepUntil blocks the calling thread in nanosleep(2) until t. Go's own
// timers fire up to a millisecond late in an idle process, because the
// runtime waits for them in epoll_wait with a whole-millisecond timeout;
// the open phase needs arrivals placed more finely than that.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the rest
	}
}

// open runs the open loop: request i is due at start+due[i] whatever the
// system is doing, goes out in due order on whichever connection is free
// first, and is timed from its due instant, so a stall is charged to every
// request that had to wait behind it. Late is the generator's own error:
// how long after both the due instant and a free connection the request
// was actually sent.
func (d *driver) open(due []time.Duration) phaseResult {
	n, off := len(due), d.cursor
	d.cursor += n
	res := phaseResult{Attempted: n, Lat: make([]float64, n), Late: make([]float64, n), IsOp: make([]bool, n)}
	for i := range res.Lat {
		res.Lat[i] = -1
	}
	var next, ok, ops, nbytes atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	var giveUp time.Time
	if n > 0 {
		giveUp = start.Add(due[n-1] + openGrace)
	}
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			free := start // when this connection last became free
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				from := start.Add(due[i])
				if free.Before(from) {
					sleepUntil(from)
					res.Late[i] = float64(time.Since(from)) / 1e6
				} else if free.After(giveUp) {
					d.ver.giveUpf("open phase: request %d still queued %v after the last arrival", i, openGrace)
					continue
				}
				r := d.strm.at(off + i)
				good, nb := d.send(ci, r)
				free = time.Now()
				res.IsOp[i] = r.Op
				nbytes.Add(int64(nb))
				if r.Op {
					ops.Add(1)
				}
				if good {
					ok.Add(1)
					res.Lat[i] = float64(free.Sub(from)) / 1e6
				}
			}
		}(ci)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.OK, res.Ops, res.Bytes = int(ok.Load()), int(ops.Load()), nbytes.Load()
	return res
}

// replay sends stream entries from..from+n-1 one at a time on one
// connection and appends to res. With a recorder, every request carries its
// stream index and its client span is recorded, so the shims' spans can be
// matched to it.
func (d *driver) replay(res *phaseResult, from, n int, rec *recorder) {
	start := time.Now()
	for i := from; i < from+n; i++ {
		r := d.strm.at(i)
		if rec != nil {
			rec.req.Store(int32(i))
		}
		t0 := time.Now()
		good, nb := d.send(0, r)
		t1 := time.Now()
		if rec != nil {
			rec.add(spClient, t0, t1, 1)
		}
		lat := -1.0
		if good {
			res.OK++
			lat = float64(t1.Sub(t0)) / 1e6
		}
		if r.Op {
			res.Ops++
		}
		res.Attempted++
		res.Bytes += int64(nb)
		res.Lat, res.IsOp, res.Sizes = append(res.Lat, lat), append(res.IsOp, r.Op), append(res.Sizes, nb)
	}
	res.Elapsed += time.Since(start)
}
