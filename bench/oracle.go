package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
)

// expectation is what a correct response to one target looks like: the
// status, length and hash of an in-process render through the controller.
// Edge-assembled bytes equal inline bytes by the program's ETag contract,
// so one expectation serves anonymous and cookie traffic alike. The hash
// is a seeded maphash rather than FNV: the generator shares two cores with
// the server, and maphash costs a tenth as much per body.
type expectation struct {
	status int
	n      int
	hash   uint64
}

// sampleEvery is how many cold-workload responses go by between two whose
// hash is kept for the check against an in-process render after the run.
const sampleEvery = 50

type sample struct {
	target int
	got    expectation
}

// write is one modify operation sent. acked is zero until a 302 came back.
type write struct {
	op            *opTarget
	oid           int
	name          string
	issued, acked time.Time
}

type rowKey struct {
	entity string
	oid    int
}

// workerState is the per-connection state of the checks: the write whose
// effect the connection's next dependent GET must show.
type workerState struct {
	path    []byte
	pending *write
	gets    int
}

// verifier checks every response and keeps the failures.
type verifier struct {
	hseed maphash.Seed
	// expect is indexed by target; nil for the cold workload, whose URL
	// space is too large to render up front.
	expect []expectation
	// volatile marks targets that read a tag some operation of the stream
	// writes: their bytes change during the run, so they are checked by
	// status, by read-your-write and against a fresh render at the end.
	volatile []bool

	attempted, failed atomic.Int64

	mu       sync.Mutex
	messages []string
	samples  []sample
	rows     map[rowKey][]*write
	skipped  int // read-your-write checks skipped because another write to the row overlapped
}

const maxMessages = 10

func (v *verifier) hashOf(b []byte) uint64 { return maphash.Bytes(v.hseed, b) }

func (v *verifier) failf(format string, args ...any) bool {
	v.failed.Add(1)
	v.mu.Lock()
	if len(v.messages) < maxMessages {
		v.messages = append(v.messages, fmt.Sprintf(format, args...))
	}
	v.mu.Unlock()
	return false
}

// giveUpf counts a request that was never sent as attempted and failed.
func (v *verifier) giveUpf(format string, args ...any) {
	v.attempted.Add(1)
	v.failf(format, args...)
}

// renderInProcess computes a target's expectation in-process through the
// controller, bypassing edge and HTTP server.
func renderInProcess(ctl *mvc.Controller, path string) (expectation, []byte) {
	rr := httptest.NewRecorder()
	ctl.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return expectation{status: rr.Code, n: rr.Body.Len()}, rr.Body.Bytes()
}

// newVerifier renders every target of a hot workload once.
func newVerifier(ctl *mvc.Controller, strm *stream, cold bool) (*verifier, error) {
	v := &verifier{hseed: maphash.MakeSeed(), rows: map[rowKey][]*write{}}
	if cold {
		return v, nil
	}
	var written []string
	for _, op := range strm.ops {
		written = append(written, op.Writes...)
	}
	v.expect = make([]expectation, len(strm.targets))
	v.volatile = make([]bool, len(strm.targets))
	repo := ctl.Repo
	for i, t := range strm.targets {
		e, body := renderInProcess(ctl, t.Path)
		if e.status != http.StatusOK {
			return nil, fmt.Errorf("oracle: %s renders with status %d", t.Path, e.status)
		}
		e.hash = v.hashOf(body)
		v.expect[i] = e
		for _, u := range repo.Page(t.Page).Units {
			for _, tag := range repo.Unit(u.ID).Reads {
				if slices.Contains(written, tag) {
					v.volatile[i] = true
				}
			}
		}
	}
	return v, nil
}

// checkGet verifies one GET response.
func (v *verifier) checkGet(w *workerState, idx int, t *target, status int, body []byte, err error) bool {
	v.attempted.Add(1)
	if err != nil {
		return v.failf("GET %s: %v", t.Path, err)
	}
	if status != http.StatusOK {
		return v.failf("GET %s: status %d", t.Path, status)
	}
	switch {
	case v.expect == nil:
		if w.gets++; w.gets%sampleEvery == 0 {
			s := sample{target: idx, got: expectation{status: status, n: len(body), hash: v.hashOf(body)}}
			v.mu.Lock()
			v.samples = append(v.samples, s)
			v.mu.Unlock()
		}
	case !v.volatile[idx]:
		if e := v.expect[idx]; len(body) != e.n || v.hashOf(body) != e.hash {
			return v.failf("GET %s: body of %d bytes differs from the in-process render of %d", t.Path, len(body), e.n)
		}
	}
	if p := w.pending; p != nil && slices.Contains(t.Lists, p.op.Entity) {
		w.pending = nil
		if v.aloneOnRow(p) && !bytes.Contains(body, []byte(p.name)) {
			return v.failf("GET %s: stale read, lacks %q written to %s %d before it was sent", t.Path, p.name, p.op.Entity, p.oid)
		}
	}
	return true
}

// aloneOnRow reports whether every other write to p's row was acknowledged
// before p was issued. Only then is p's name what a later read must show:
// the two connections may write one row at overlapping times, and then
// either order is correct.
func (v *verifier) aloneOnRow(p *write) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, o := range v.rows[rowKey{p.op.Entity, p.oid}] {
		if o != p && (o.acked.IsZero() || o.acked.After(p.issued)) {
			v.skipped++
			return false
		}
	}
	return true
}

// beginWrite registers a modify about to be sent.
func (v *verifier) beginWrite(op *opTarget, oid int, name string) *write {
	wr := &write{op: op, oid: oid, name: name, issued: time.Now()}
	k := rowKey{op.Entity, oid}
	v.mu.Lock()
	v.rows[k] = append(v.rows[k], wr)
	v.mu.Unlock()
	return wr
}

// checkOp verifies the response to a modify: a redirect to the manage
// page acknowledges it.
func (v *verifier) checkOp(w *workerState, wr *write, status int, err error) bool {
	v.attempted.Add(1)
	if err != nil {
		return v.failf("op %s oid %d: %v", wr.op.ID, wr.oid, err)
	}
	if status != http.StatusFound {
		return v.failf("op %s oid %d: status %d, want 302", wr.op.ID, wr.oid, status)
	}
	v.mu.Lock()
	wr.acked = time.Now()
	v.mu.Unlock()
	w.pending = wr
	return true
}

// checkSamples compares the sampled cold-workload responses with
// in-process renders. It runs after the phases, while the stack is up.
func (v *verifier) checkSamples(ctl *mvc.Controller, strm *stream) int {
	for _, s := range v.samples {
		t := strm.targets[s.target]
		e, body := renderInProcess(ctl, t.Path)
		e.hash = v.hashOf(body)
		v.attempted.Add(1)
		if e != s.got {
			v.failf("GET %s: sampled body of %d bytes differs from the in-process render of %d", t.Path, s.got.n, e.n)
		}
	}
	return len(v.samples)
}

// checkEndState fetches every volatile target once more over HTTP, with
// no cookie so the edge answers, and compares it with a fresh in-process
// render: a fragment that survived the purge of a write it depends on
// shows here as a stale read.
func (v *verifier) checkEndState(ctl *mvc.Controller, strm *stream, c *client) int {
	n := 0
	for i, t := range strm.targets {
		if !v.volatile[i] {
			continue
		}
		n++
		e, want := renderInProcess(ctl, t.Path)
		status, body, err := c.do(t.Path, "")
		v.attempted.Add(1)
		switch {
		case err != nil:
			v.failf("end state GET %s: %v", t.Path, err)
		case status != e.status || !bytes.Equal(body, want):
			v.failf("end state GET %s: stale read, status %d and %d bytes over HTTP, %d and %d in-process", t.Path, status, len(body), e.status, len(want))
		}
	}
	return n
}

// checkDurable verifies against a reopened database that every modified
// row holds the name of an acknowledged write that no later acknowledged
// write to the same row replaced. Writes to one row from the two
// connections may overlap; a write is replaced for certain only when
// another one to its row was issued after it was acknowledged. This is a
// reopen check, not a crash test: the process closed the database cleanly.
func (v *verifier) checkDurable(db *rdb.DB) (rows int, err error) {
	for k, ws := range v.rows {
		var candidates []string
		for _, w := range ws {
			replaced := false
			for _, o := range ws {
				if !w.acked.IsZero() && !o.acked.IsZero() && o.issued.After(w.acked) {
					replaced = true
				}
			}
			if !replaced {
				candidates = append(candidates, w.name)
			}
		}
		op := ws[0].op
		row, err := db.QueryRow("SELECT "+op.Column+" FROM "+strings.ToLower(k.entity)+" WHERE oid = ?", int64(k.oid))
		if err != nil {
			return rows, fmt.Errorf("reopen check: %w", err)
		}
		rows++
		v.attempted.Add(1)
		got, _ := row[op.Column].(string)
		if !slices.Contains(candidates, got) {
			v.failf("after reopen %s %d holds %q, want one of the acknowledged %v", k.entity, k.oid, got, candidates)
		}
	}
	return rows, nil
}
