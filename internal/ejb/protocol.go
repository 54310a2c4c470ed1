// Package ejb simulates the application-server architecture of Figure 6:
// the page and unit services become business components deployed in a
// separate container ("EJB container"), reachable over the network, so
// that non-Web applications share the same business logic and the number
// of active service instances adapts at runtime — the two limitations of
// servlet-container-local services that Section 4 calls out.
//
// One wire protocol is spoken (wire.go, codec.go): a framed, multiplexed
// binary protocol over TCP opened by a handshake magic, with one request
// frame and one reply frame. A peer that does not complete the handshake
// is disconnected.
package ejb

import (
	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
)

// Item kinds: what one item of a request frame asks the container to run.
const (
	kindUnit      byte = iota // ComputeUnit(Descriptor, Inputs)
	kindOperation             // ExecuteOperation(Descriptor, Inputs)
	kindPage                  // the deployed page service: PageID, Inputs, FormState
)

// kindName is an item kind's span and metric label.
func kindName(k byte) string {
	if names := [...]string{"unit", "operation", "page"}; int(k) < len(names) {
		return names[k]
	}
	return "unknown"
}

// response is the invocation result.
type response struct {
	Bean *mvc.UnitBean
	Op   *mvc.OpResult
	Page *mvc.PageState
	// Err is a serialized error ("" on success).
	Err string
	// Deadline marks an Err the container's deadline caused, which the
	// client reports as context.DeadlineExceeded.
	Deadline bool
	// Spans carries the container-side spans of a traced invocation back
	// to the caller, which stitches them into the request trace — no
	// distributed collector needed (empty when untraced).
	Spans []obs.Span
}

// batchCall is one item of a request frame. Every item carries every
// field, whatever its kind, so an item of a kind this build does not
// know still decodes and gets its own error reply. Each item carries its
// own span ID so the container collects a distinct remote trace per item
// and ships it back in that item's response.
type batchCall struct {
	Kind       byte
	SpanID     uint64
	Descriptor *descriptor.Unit // unit and operation items
	Inputs     map[string]mvc.Value
	// PageID and FormState parameterize page items (the "Page EJBs" of
	// Figure 6: the whole computePage runs server-side).
	PageID    string
	FormState map[string]*mvc.FormState
	// Units holds a page item's unit descriptors, against which its
	// reply's beans are encoded and decoded; it is not on the wire.
	Units *descriptor.Repository
}

// batchRequest is the body of every request frame: a level of units, or
// one operation, or one page, submitted in a single round trip. The
// container runs the items concurrently under the frame's one deadline
// and answers with one reply frame.
type batchRequest struct {
	// DeadlineMS is the caller's remaining request budget in
	// milliseconds (0 = none). The container derives its invocation
	// context from it, so a deadline set in the servlet tier bounds work
	// in the application server too.
	DeadlineMS int64
	// TraceID propagates the caller's trace across the tier boundary
	// (0 = untraced); each item's SpanID parents its remote spans.
	TraceID uint64
	Calls   []batchCall
}
