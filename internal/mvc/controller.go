package mvc

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"webmlgo/internal/admit"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/obs"
	"webmlgo/internal/surrogate"
	"webmlgo/internal/webml"
)

// Renderer is the View of Figure 4; internal/render implements it with
// custom-tag templates. RenderPage renders a computed page inline.
// RenderContainer renders the page as a container whose unit slots are
// <esi:include> placeholders and computes nothing (Section 6's ESI
// surrogate architecture). RenderUnitFragment renders exactly the markup
// RenderPage inlines for one unit: the body of a fragment endpoint.
// VariesByUserAgent reports whether rendering dispatches on the
// User-Agent, so responses carry Vary.
type Renderer interface {
	RenderPage(pd *descriptor.Page, state *PageState, ctx *RequestContext) ([]byte, error)
	RenderContainer(pd *descriptor.Page, ctx *RequestContext) ([]byte, error)
	RenderUnitFragment(pd *descriptor.Page, state *PageState, ctx *RequestContext, unitID string) ([]byte, error)
	VariesByUserAgent() bool
}

// RequestContext carries per-request information to the View.
type RequestContext struct {
	// Params are the request parameters (typed).
	Params map[string]Value
	// Session is the user's session; nil for a fragment, which is the
	// same for every user.
	Session *Session
	// UserAgent is the declared client, used for multi-device
	// presentation dispatch (Section 5).
	UserAgent string
	// Error carries an operation failure message to display.
	Error string
}

// PageComputer produces the state objects of one page. The in-process
// implementation is PageService; internal/ejb provides a remote one (the
// "Page EJBs" of Figure 6, one round trip per page).
type PageComputer interface {
	ComputePage(ctx context.Context, pageID string, request map[string]Value, formState map[string]*FormState) (*PageState, error)
}

// Controller is the single servlet of the MVC 2 architecture (Figure 3):
// it intercepts every request, maps it to a page, operation or fragment
// action through the configuration file, invokes the business tier, and
// dispatches the View or the next action. Every action takes one path:
// admission, tracing, panic containment and per-action metrics wrap it,
// and a page or operation resumes its session by one rule
// (SessionManager.Resume). A response that sets the session cookie is
// private; only an anonymous page is public.
type Controller struct {
	Repo     *descriptor.Repository
	Business Business
	Pages    PageComputer
	Sessions *SessionManager
	Renderer Renderer
	// EdgeFragments enables the edge-tier protocol: fragment/<page>/<unit>
	// endpoints answer with Surrogate-Control policies, and page actions
	// from an ESI-capable surrogate get container output instead of a
	// full inline render.
	EdgeFragments bool
	// RequestTimeout is the per-request deadline budget handed to the
	// business tier: page and operation actions derive a context that
	// expires after this much time, and every tier below (page service,
	// bean cache, remote stub) observes it. A request past its budget
	// answers 504 (or a degraded stale bean, if enabled). 0 disables the
	// deadline — only client disconnect cancels.
	RequestTimeout time.Duration
	// Obs, when set, traces requests: a trace ID is allocated per
	// request (or joined, when the edge tier already started one) and
	// every tier below contributes spans. Nil disables tracing; the
	// latency histograms stay on either way.
	Obs *obs.Tracer
	// Admission, when set, gates every action behind the admission
	// limiter: a request acquires a concurrency slot (possibly queueing)
	// before any tier below runs, and holds it until the response is
	// written. Shed requests answer 503 with a drain-rate Retry-After
	// and an X-Webml-Shed marker so the edge can substitute a stale
	// fragment instead of surfacing the error.
	Admission *admit.Limiter

	metrics metrics
}

// maxChain bounds operation chain length (OK links targeting further
// operations).
const maxChain = 8

// actionState is one action's per-request state, made as one value: the
// response writer that records the status for metrics and the trace, the
// request's deadline, and the View's request context.
type actionState struct {
	w        obs.StatusWriter
	deadline DeadlineContext
	view     RequestContext
}

// NewController wires a controller over a repository, business tier and
// renderer.
func NewController(repo *descriptor.Repository, business Business, renderer Renderer) *Controller {
	return &Controller{
		Repo:     repo,
		Business: business,
		Pages:    &PageService{Repo: repo, Business: business},
		Sessions: NewSessionManager(0),
		Renderer: renderer,
	}
}

// ServeHTTP implements http.Handler. Routes:
//
//	GET  /page/<id>              page actions
//	GET  /op/<id>                operation actions (also POST)
//	GET  /fragment/<page>/<unit> edge-tier fragments (with EdgeFragments)
//	POST /login                  sets the session principal (parameter "user")
//	POST /logout                 clears it
//
// Login and logout store into the session, so they register it and set
// its cookie even for a request that came without one.
func (c *Controller) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	switch {
	case strings.HasPrefix(path, "page/"), strings.HasPrefix(path, "op/"), strings.HasPrefix(path, "fragment/"):
		c.serveAction(w, r, path)
	case path == "login":
		user := r.FormValue("user")
		if user == "" {
			http.Error(w, "missing user", http.StatusBadRequest)
			return
		}
		c.Sessions.Register(w, c.Sessions.Resume(w, r)).Set(sessionUserKey, user)
		if back := r.FormValue("back"); back != "" && strings.HasPrefix(back, "/") {
			http.Redirect(w, r, back, http.StatusFound)
			return
		}
		fmt.Fprintln(w, "ok")
	case path == "logout":
		c.Sessions.Register(w, c.Sessions.Resume(w, r)).Delete(sessionUserKey)
		fmt.Fprintln(w, "ok")
	default:
		http.NotFound(w, r)
	}
}

// serveAction runs one action behind admission, with tracing, panic
// containment and per-action metrics around it. A panic in a
// user-supplied custom component or plug-in service fails only its
// request, with a 500; the server survives.
func (c *Controller) serveAction(w http.ResponseWriter, r *http.Request, action string) {
	start := time.Now()
	var slot admit.Slot
	pri, ok := c.admitRequest(w, r, &slot)
	if !ok {
		c.metrics.record(action, time.Since(start), true)
		return
	}
	admitted := time.Now()
	a := &actionState{w: obs.StatusWriter{ResponseWriter: w, Code: http.StatusOK}}
	r, finish := c.traceRequest(r, action)
	if c.Admission != nil {
		// Retro-recorded: the wait happened before the trace existed.
		obs.RecordSpan(r.Context(), "admission.wait", start, admitted, "class", pri.String())
	}
	defer func() {
		if rec := recover(); rec != nil {
			http.Error(&a.w, fmt.Sprintf("internal error in action %s: %v", action, rec),
				http.StatusInternalServerError)
		}
		slot.Release()
		finish(a.w.Code)
		c.metrics.record(action, time.Since(start), a.w.Code >= 400)
	}()
	c.dispatch(a, r, action)
}

// admitRequest passes one request through the admission limiter. A
// shed answers 503 immediately: Retry-After derived from the measured
// drain rate, X-Webml-Shed so upstream caches know the error is a load
// decision (and may serve stale), and the shed class for debugging.
// An admitted request's slot holds the concurrency slot; its Release
// must be called once the action has written its response. Without
// admission the slot stays empty.
func (c *Controller) admitRequest(w http.ResponseWriter, r *http.Request, slot *admit.Slot) (admit.Priority, bool) {
	if c.Admission == nil {
		return 0, true
	}
	pri := admit.Classify(r)
	acqStart := time.Now()
	err := c.Admission.AcquireSlot(r.Context(), pri, slot)
	if err == nil {
		return pri, true
	}
	// A shed on a request an upstream tier already traced (the edge
	// surrogate) leaves its mark in that trace; controller-rooted traces
	// don't exist yet at admission time, by design — admission runs
	// before any per-request allocation.
	obs.RecordSpan(r.Context(), "admission.shed", acqStart, time.Now(), "class", pri.String())
	if admit.IsShed(err) {
		h := w.Header()
		h.Set("Retry-After", strconv.Itoa(int(c.Admission.RetryAfter()/time.Second)))
		h.Set("X-Webml-Shed", "1")
		h.Set("X-Webml-Shed-Class", pri.String())
		http.Error(w, "overloaded: "+err.Error(), http.StatusServiceUnavailable)
	} else {
		// Not a load decision: the client went away while queued.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
	return pri, false
}

// traceRequest attaches tracing to one request: if an upstream tier (the
// edge surrogate, in-process) already started a trace, the controller
// joins it with a child span; otherwise, with a tracer configured, it
// becomes the trace root. The returned finish must be called with the
// final status once the action completes. Untraced requests pay one
// context lookup and get no-ops.
func (c *Controller) traceRequest(r *http.Request, action string) (*http.Request, func(status int)) {
	ctx := r.Context()
	if t, _ := obs.FromContext(ctx); t != nil {
		ctx, sp := obs.StartSpan(ctx, "controller")
		sp.Label("action", action)
		return r.WithContext(ctx), func(int) { sp.End() }
	}
	if c.Obs == nil {
		return r, func(int) {}
	}
	ctx, t := c.Obs.Start(ctx, action)
	if t == nil { // sampled out
		return r, func(int) {}
	}
	return r.WithContext(ctx), func(status int) { c.Obs.Finish(t, status) }
}

// errStatus maps a business-tier failure to an HTTP status: a request
// past its deadline budget is a 504 (the tier boundary timed out, not
// the application logic), anything else stays a 500.
func errStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// dispatch runs one action: a fragment, or a page or operation action and
// any operation chain it starts. Fragments never read a session. The
// request is bounded by its one deadline, the budget every tier below
// (page service, bean cache, remote stub) observes; it is a value, and a
// timer is armed only where a wait blocks.
func (c *Controller) dispatch(a *actionState, r *http.Request, action string) {
	w, ctx := http.ResponseWriter(&a.w), r.Context()
	if c.RequestTimeout > 0 {
		a.deadline.Init(ctx, time.Now().Add(c.RequestTimeout))
		defer a.deadline.Release()
		ctx = &a.deadline
	}
	params := requestParams(r)
	if fragmentID, ok := strings.CutPrefix(action, "fragment/"); ok {
		c.fragmentAction(ctx, w, r, &a.view, fragmentID, params)
		return
	}
	session := c.Sessions.Resume(w, r)
	for hop := 0; ; hop++ {
		m := c.Repo.Config().Mapping(action)
		if m == nil {
			http.NotFound(w, r)
			return
		}
		switch m.Type {
		case "page":
			c.pageAction(ctx, w, r, &a.view, session, m, params)
			return
		case "operation":
			if hop == 0 && !c.fanOut(ctx, w, r, session, m, params) {
				return
			}
			res := c.operationAction(ctx, w, r, session, m, params)
			if res == nil {
				return
			}
			if !strings.HasPrefix(m.OK, "op/") {
				c.redirect(w, r, m.OK, m.OKParams, res.Outputs, params, "")
				return
			}
			// Chained operation: continue in-process.
			if hop >= maxChain {
				http.Error(w, "operation chain too long", http.StatusLoopDetected)
				return
			}
			action, params = m.OK, forward(m.OKParams, res.Outputs, params)
		default:
			http.Error(w, "bad mapping type", http.StatusInternalServerError)
			return
		}
	}
}

// fanOut applies an operation once per value of a multichoice selection
// (a parameter carrying several values). Every value but the last runs
// through operationAction alone; the last is left in params, so it
// continues as a single invocation would, OK chain included. It reports
// false when a value failed and its response is written.
func (c *Controller) fanOut(ctx context.Context, w http.ResponseWriter, r *http.Request, session *Session, m *descriptor.Mapping, params map[string]Value) bool {
	name, values := multiParam(r)
	if len(values) < 2 {
		return true
	}
	for _, v := range values[:len(values)-1] {
		fan := maps.Clone(params)
		fan[name] = ConvertParam(v)
		if c.operationAction(ctx, w, r, session, m, fan) == nil {
			return false
		}
	}
	params[name] = ConvertParam(values[len(values)-1])
	return true
}

// pageAction is the page action of Figure 4: extract the input from the
// HTTP request, call the page service, then invoke the View with vctx.
func (c *Controller) pageAction(ctx context.Context, w http.ResponseWriter, r *http.Request, vctx *RequestContext, session *Session, m *descriptor.Mapping, params map[string]Value) {
	pd := c.Repo.Page(m.Page)
	if pd == nil {
		http.Error(w, "missing page descriptor", http.StatusInternalServerError)
		return
	}
	if pd.Protected && session.User() == "" {
		w.Header().Set("WWW-Authenticate", "Session")
		http.Error(w, "authentication required", http.StatusUnauthorized)
		return
	}
	formState := takeFormState(session, pd)
	*vctx = RequestContext{
		Params:    params,
		Session:   session,
		UserAgent: r.UserAgent(),
		Error:     stringParam(params, "_error"),
	}

	// Cache metadata. Runtime styling dispatches on the User-Agent, so
	// any cache between here and the browser must key on it. A page is
	// shared only when it is the same for every client: content tied to
	// a principal or to one-shot form state is private, and so is a
	// response that sets the session cookie (Register made it private).
	h := w.Header()
	if c.Renderer.VariesByUserAgent() {
		varyUA(h)
	}
	shared := !pd.Protected && session.User() == "" && len(formState) == 0 && h.Get("Set-Cookie") == ""
	if shared {
		// Anonymous pages revalidate against the content-addressed ETag.
		h["Cache-Control"] = hdrCachePublic
	} else {
		setPrivate(h)
	}

	// Edge mode: an ESI-capable surrogate asking for a shared page gets
	// the container — placeholders only, no unit computation here. A
	// private page falls through to a full inline render, which the
	// surrogate relays without caching (no-store above).
	if c.EdgeFragments && shared && strings.Contains(r.Header.Get("Surrogate-Capability"), "ESI/1.0") {
		out, err := c.Renderer.RenderContainer(pd, vctx)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		h["Surrogate-Control"] = hdrSurrogateESI
		h["Content-Type"] = hdrHTML
		w.Write(out) //nolint:errcheck // client disconnects are not actionable
		return
	}

	state, err := c.Pages.ComputePage(ctx, m.Page, params, formState)
	if err != nil {
		http.Error(w, err.Error(), errStatus(err))
		return
	}
	out, err := c.Renderer.RenderPage(pd, state, vctx)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Content-addressed ETag: clients and intermediaries revalidate
	// cheaply; unchanged pages cost one hash instead of a transfer.
	var tag [18]byte
	etag := string(append(strconv.AppendUint(append(tag[:0], '"'), bodyHash(out), 16), '"'))
	h["Etag"] = []string{etag}
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = hdrHTML
	w.Write(out) //nolint:errcheck // client disconnects are not actionable
}

// Constant header values, one shared slice each: nothing writes into a
// header's value slice, and Add appends to a one-element slice by copying.
var (
	hdrVaryUA       = []string{"User-Agent"}
	hdrCachePublic  = []string{"public, max-age=0, must-revalidate"}
	hdrCachePrivate = []string{"private, no-store"}
	hdrNoStore      = []string{"no-store"}
	hdrSurrogateESI = []string{`content="ESI/1.0"`}
	hdrHTML         = []string{"text/html; charset=utf-8"}
	// hdrNoDeps is the dependency header of a fragment without tags.
	hdrNoDeps = []string{""}
)

// varyUA adds User-Agent to the response's Vary header.
func varyUA(h http.Header) {
	if vary := h["Vary"]; len(vary) > 0 {
		h["Vary"] = append(vary, "User-Agent")
	} else {
		h["Vary"] = hdrVaryUA
	}
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // hash writes cannot fail
	return h.Sum64()
}

// fragmentAction answers one edge-tier fragment request:
//
//	GET /fragment/<page>/<unit>?<page params>
//
// renders exactly the markup RenderPage would inline for that unit of
// that page, computing only the unit's cone (the unit and the units it
// takes transport-edge parameters from), with the surrogate cache
// policy derived from the unit's descriptor (Surrogate-Control max-age
// from the conceptual cache TTL, X-Webml-Deps from the read tags of the
// beans the cone computed) — the per-fragment "different policies" of
// Section 6's ESI architecture, driven entirely by the model.
func (c *Controller) fragmentAction(ctx context.Context, w http.ResponseWriter, r *http.Request, vctx *RequestContext, fragmentID string, params map[string]Value) {
	if !c.EdgeFragments {
		http.NotFound(w, r)
		return
	}
	pageID, unitID, ok := strings.Cut(fragmentID, "/")
	if !ok || pageID == "" || unitID == "" {
		http.NotFound(w, r)
		return
	}
	pd := c.Repo.Page(pageID)
	if pd == nil {
		http.NotFound(w, r)
		return
	}
	if pd.Protected {
		// Protected pages never decompose into shared fragments.
		http.Error(w, "authentication required", http.StatusUnauthorized)
		return
	}
	if !hasUnit(pd, unitID) {
		// Not a fragment of this page: answered before anything is
		// computed, and never cached at the edge.
		http.NotFound(w, r)
		return
	}
	// The fragment ID names the unit's cone, not the page.
	state, err := c.Pages.ComputePage(ctx, fragmentID, params, nil)
	if err != nil {
		http.Error(w, err.Error(), errStatus(err))
		return
	}
	*vctx = RequestContext{Params: params, UserAgent: r.UserAgent()}
	out, err := c.Renderer.RenderUnitFragment(pd, state, vctx, unitID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	if d := c.Repo.Unit(unitID); d != nil && d.Cache != nil && d.Cache.Enabled && d.Cache.TTLSeconds > 0 {
		h["Surrogate-Control"] = surrogate.MaxAgeValue(d.Cache.TTLSeconds)
	}
	// Always present (one empty value when there is no tag): the header
	// marks the response surrogate-cacheable and carries the tags whose
	// writes purge it.
	h[surrogate.DepsHeader] = c.fragmentDeps(state)
	if c.Renderer.VariesByUserAgent() {
		varyUA(h)
	}
	// Fragments are surrogate-internal: browsers and shared HTTP caches
	// must never store partial page markup.
	h["Cache-Control"] = hdrNoStore
	h["Content-Type"] = hdrHTML
	w.Write(out) //nolint:errcheck // client disconnects are not actionable
}

// fragmentDeps returns a fragment's dependency header values, one tag
// each in sorted order: the union of the read tags (ReadTags) of the
// beans its cone computed, or hdrNoDeps when there is none.
func (c *Controller) fragmentDeps(state *PageState) []string {
	var buf [16]string
	tags := buf[:0]
	for id, bean := range state.Beans {
		if d := c.Repo.Unit(id); d != nil {
			tags = ReadTags(tags, d, bean)
		}
	}
	slices.Sort(tags)
	if tags = slices.Compact(tags); len(tags) == 0 {
		return hdrNoDeps
	}
	return slices.Clip(slices.Clone(tags))
}

// hasUnit reports whether the unit is on the page.
func hasUnit(pd *descriptor.Page, unitID string) bool {
	for _, u := range pd.Units {
		if u.ID == unitID {
			return true
		}
	}
	return false
}

// FragmentURL builds the edge fragment URL of one unit: the fragment
// endpoint carrying, in sorted order (stable surrogate cache keys), the
// request parameters the unit's cone reads, so that every page URL
// showing the same fragment shares one cache entry. A cone holding a
// scroller or a plug-in unit keeps every parameter: a scroller's prev and
// next anchors echo them all. Internal parameters (leading underscore,
// e.g. _error) stay at the container level.
func FragmentURL(repo *descriptor.Repository, pageID, unitID string, params map[string]Value) string {
	var buf [8]*descriptor.Unit
	cone, all := buf[:0], false
	if s, err := repo.Schedule(pageID + "/" + unitID); err != nil {
		all = true
	} else {
		for _, id := range s.Order {
			d := repo.Unit(id)
			if all = d == nil || !namedInputsOnly(d.Kind); all {
				break
			}
			cone = append(cone, d)
		}
	}
	out := make(map[string]string, len(params))
	for k, v := range params {
		if !strings.HasPrefix(k, "_") && (all || coneReads(cone, k)) {
			out[k] = FormatParam(v)
		}
	}
	return ActionURL("fragment/"+pageID+"/"+unitID, out)
}

// namedInputsOnly reports whether a unit of the kind reads request
// parameters only through its declared inputs, in computing and in
// rendering.
func namedInputsOnly(kind string) bool {
	switch webml.UnitKind(kind) {
	case webml.DataUnit, webml.IndexUnit, webml.MultidataUnit, webml.MultichoiceUnit, webml.EntryUnit:
		return true
	}
	return false
}

// coneReads reports whether a unit of the cone declares the input.
func coneReads(cone []*descriptor.Unit, name string) bool {
	for _, d := range cone {
		for _, p := range d.Inputs {
			if p.Name == name {
				return true
			}
		}
	}
	return false
}

// operationAction executes one operation over params: the validation
// service, then the business tier. A failure answers the request itself
// (the KO redirect, or an error status) and returns nil; success returns
// the result, for the caller to follow the OK link.
func (c *Controller) operationAction(ctx context.Context, w http.ResponseWriter, r *http.Request, session *Session, m *descriptor.Mapping, params map[string]Value) *OpResult {
	d := c.Repo.Unit(strings.TrimPrefix(m.Action, "op/"))
	if d == nil {
		http.Error(w, "missing operation descriptor", http.StatusInternalServerError)
		return nil
	}

	// Validation service: check the inputs against the feeding entry
	// unit's field specifications before touching the database.
	if m.Validate != "" {
		if entry := c.Repo.Unit(m.Validate); entry != nil {
			if errs := ValidateFields(entry.Fields, params); len(errs) > 0 {
				// The KO page reads the form state back through the
				// session cookie, set here before the redirect.
				storeFormState(c.Sessions.Register(w, session), m.Validate, params, errs)
				c.redirect(w, r, m.KO, m.KOParams, nil, params, "validation failed")
				return nil
			}
		}
	}

	res, err := c.Business.ExecuteOperation(ctx, d, params)
	if err != nil {
		http.Error(w, err.Error(), errStatus(err))
		return nil
	}
	if !res.OK {
		c.redirect(w, r, m.KO, m.KOParams, res.Outputs, params, res.Err)
		return nil
	}
	return res
}

// redirect sends the browser to the target action with forwarded
// parameters (HTTP 302, the classical MVC 2 post-redirect-get).
func (c *Controller) redirect(w http.ResponseWriter, r *http.Request, action string, fwd []descriptor.ForwardParam, outputs map[string]Value, params map[string]Value, errMsg string) {
	if action == "" {
		http.Error(w, "operation has no continuation: "+errMsg, http.StatusInternalServerError)
		return
	}
	q := url.Values{}
	for k, v := range forward(fwd, outputs, params) {
		if !strings.HasPrefix(k, "_") {
			q.Set(k, FormatParam(v))
		}
	}
	if errMsg != "" {
		q.Set("_error", errMsg)
	}
	target := "/" + action
	if enc := q.Encode(); enc != "" {
		target += "?" + enc
	}
	http.Redirect(w, r, target, http.StatusFound)
}

// forward materializes link-parameter forwarding: each ForwardParam's
// source is looked up in the operation outputs first, then in the
// original request parameters. With no explicit forwarding rules, the
// outputs and request parameters pass through (so a created OID reaches
// the next page).
func forward(fwd []descriptor.ForwardParam, outputs map[string]Value, params map[string]Value) map[string]Value {
	out := make(map[string]Value)
	if len(fwd) == 0 {
		for k, v := range params {
			out[k] = v
		}
		for k, v := range outputs {
			out[k] = v
		}
		return out
	}
	for _, f := range fwd {
		if v, ok := outputs[f.Source]; ok {
			out[f.Target] = v
			continue
		}
		if v, ok := params[f.Source]; ok {
			out[f.Target] = v
		}
	}
	return out
}

// ValidateFields applies the validation service's rules: required fields
// must be present and non-empty, and typed fields must parse.
func ValidateFields(fields []descriptor.FieldSpec, params map[string]Value) map[string]string {
	errs := map[string]string{}
	for _, f := range fields {
		raw, present := params[f.Name]
		s := ""
		if present {
			s = FormatParam(raw)
		}
		if s == "" {
			if f.Required {
				errs[f.Name] = "required"
			}
			continue
		}
		switch strings.ToUpper(f.Type) {
		case "INTEGER":
			if _, err := strconv.ParseInt(s, 10, 64); err != nil {
				errs[f.Name] = "must be an integer"
			}
		case "REAL":
			if _, err := strconv.ParseFloat(s, 64); err != nil {
				errs[f.Name] = "must be a number"
			}
		case "BOOLEAN":
			if s != "true" && s != "false" {
				errs[f.Name] = "must be true or false"
			}
		}
	}
	return errs
}

// Form state round-trips entry values and errors across KO redirects.

func formStateKey(entryID string) string { return "form:" + entryID }

func storeFormState(session *Session, entryID string, params map[string]Value, errs map[string]string) {
	fs := &FormState{Values: map[string]Value{}, Errors: errs}
	for k, v := range params {
		if !strings.HasPrefix(k, "_") {
			fs.Values[k] = v
		}
	}
	session.Set(formStateKey(entryID), fs)
}

// takeFormState collects (and clears) the sticky form state of every
// entry unit on the page; it is nil when there is none.
func takeFormState(session *Session, pd *descriptor.Page) map[string]*FormState {
	if session.empty() {
		return nil
	}
	var out map[string]*FormState
	for _, u := range pd.Units {
		if v, ok := session.Get(formStateKey(u.ID)); ok {
			if fs, ok := v.(*FormState); ok {
				if out == nil {
					out = make(map[string]*FormState)
				}
				out[u.ID] = fs
			}
			session.Delete(formStateKey(u.ID))
		}
	}
	return out
}

// multiParam returns the first request parameter carrying multiple
// values, if any.
func multiParam(r *http.Request) (string, []string) {
	_ = r.ParseForm() //nolint:errcheck // malformed bodies yield empty form
	for k, vs := range r.Form {
		if len(vs) > 1 {
			return k, vs
		}
	}
	return "", nil
}

// requestParams converts the request's parameters into typed values, the
// first value of each name; it is nil when a request without a body has
// no query. A query is read straight into the map, by url.ParseQuery's
// rules: pairs split at '&', and a pair holding ';' or failing to
// unescape skipped. A request that may carry a form body goes through
// ParseForm, body values first, which leaves the parsed form for
// multiParam: the body can be read only once.
func requestParams(r *http.Request) map[string]Value {
	if r.Form != nil || r.Method == http.MethodPost || r.Method == http.MethodPut || r.Method == http.MethodPatch {
		_ = r.ParseForm() //nolint:errcheck // malformed bodies yield empty form
		out := make(map[string]Value, len(r.Form))
		for k, vs := range r.Form {
			if len(vs) > 0 {
				out[k] = ConvertParam(vs[0])
			}
		}
		return out
	}
	q := r.URL.RawQuery
	if q == "" {
		return nil
	}
	out := make(map[string]Value, strings.Count(q, "&")+1)
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		if _, seen := out[k]; !seen {
			out[k] = ConvertParam(v)
		}
	}
	return out
}

func stringParam(params map[string]Value, name string) string {
	if v, ok := params[name]; ok {
		return FormatParam(v)
	}
	return ""
}

// ActionURL builds the URL of an action with sorted query parameters
// (stable for tests and cache keys).
func ActionURL(action string, params map[string]string) string {
	if len(params) == 0 {
		return "/" + action
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	q := url.Values{}
	for _, k := range keys {
		q.Set(k, params[k])
	}
	return "/" + action + "?" + q.Encode()
}
