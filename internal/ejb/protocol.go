// Package ejb simulates the application-server architecture of Figure 6:
// the page and unit services become business components deployed in a
// separate container ("EJB container"), reachable over the network, so
// that non-Web applications share the same business logic and the number
// of active service instances adapts at runtime — the two limitations of
// servlet-container-local services that Section 4 calls out.
//
// One wire protocol is spoken: wire v2 (wire.go, codec.go), a framed,
// multiplexed binary protocol over TCP opened by a handshake magic. A
// peer that does not complete the handshake is disconnected.
package ejb

import (
	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
)

// request is one remote invocation.
type request struct {
	// Kind is "operation" or "page": units travel only in batch frames.
	Kind string
	// Descriptor carries the unit descriptor (the component is generic;
	// the descriptor makes it concrete, exactly as in Figure 5). Unused
	// for page requests.
	Descriptor *descriptor.Unit
	// Inputs are the call parameters.
	Inputs map[string]mvc.Value
	// PageID and FormState parameterize page requests (the "Page EJBs"
	// of Figure 6: the whole computePage runs server-side).
	PageID    string
	FormState map[string]*mvc.FormState
	// DeadlineMS is the caller's remaining request budget in
	// milliseconds (0 = none). The container derives its invocation
	// context from it, so a deadline set in the servlet tier bounds work
	// in the application server too — the budget crosses the tier
	// boundary with the call.
	DeadlineMS int64
	// TraceID and SpanID propagate the caller's trace across the tier
	// boundary (0 = untraced).
	TraceID uint64
	SpanID  uint64
}

// response is the invocation result.
type response struct {
	Bean *mvc.UnitBean
	Op   *mvc.OpResult
	Page *mvc.PageState
	// Err is a serialized error ("" on success).
	Err string
	// Spans carries the container-side spans of a traced invocation back
	// to the caller, which stitches them into the request trace — no
	// distributed collector needed (empty when untraced).
	Spans []obs.Span
}

// batchCall is one unit computation inside a batch frame. Each item
// carries its own span ID so the container collects a distinct remote
// trace per item and ships it back in that item's response.
type batchCall struct {
	SpanID     uint64
	Descriptor *descriptor.Unit
	Inputs     map[string]mvc.Value
}

// batchRequest is the body of an ftBatch frame: all remote unit
// computations of one schedule level, submitted in a single round trip.
// The container computes the calls concurrently under the batch's one
// deadline and answers with one ftBatchReply frame.
type batchRequest struct {
	DeadlineMS int64
	TraceID    uint64
	Calls      []batchCall
}
