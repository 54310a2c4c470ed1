// Package webmlgo is a model-driven generator and runtime for
// data-intensive Web applications, reproducing the architecture of
// WebRatio as described in Ceri & Fraternali et al., "Architectural
// Issues and Solutions in the Development of Data-Intensive Web
// Applications" (CIDR 2003).
//
// An application is specified by an Entity-Relationship data model plus
// a WebML hypertext model. New compiles the specification — relational
// DDL, XML unit/page descriptors, controller configuration, template
// skeletons — and assembles the MVC 2 runtime: an http.Handler whose
// Controller dispatches page and operation actions to one generic page
// service and one generic unit service per unit kind.
//
// A minimal application:
//
//	model := webmlgo.NewBuilder("hello", schema) // ... build pages ...
//	app, err := webmlgo.New(model.MustBuild(),
//	    webmlgo.WithBeanCache(4096),
//	    webmlgo.WithCompiledStyle(webmlgo.B2CStyle()))
//	http.ListenAndServe(":8080", app.Handler())
package webmlgo

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"webmlgo/internal/admit"
	"webmlgo/internal/cache"
	"webmlgo/internal/codegen"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/edge"
	"webmlgo/internal/ejb"
	"webmlgo/internal/fault"
	"webmlgo/internal/mvc"
	"webmlgo/internal/obs"
	"webmlgo/internal/rdb"
	"webmlgo/internal/render"
	"webmlgo/internal/style"
	"webmlgo/internal/webml"
)

// App is a fully assembled application: generated artifacts plus the
// running MVC stack.
type App struct {
	Model     *webml.Model
	Artifacts *codegen.Artifacts
	DB        *rdb.DB

	Controller *mvc.Controller
	Renderer   *render.Engine
	Business   mvc.Business

	// BeanCache and Edge are Section 6's two cache levels, non-nil when
	// WithBeanCache and WithEdgeCache were set.
	BeanCache *cache.BeanCache
	Edge      *edge.Surrogate

	// Remote is the application-server client when WithAppServer or
	// WithElasticFleet is set.
	Remote *ejb.RemoteBusiness
	// Admission is the web tier's admission limiter when WithAdmission
	// is set: every controller action acquires a slot (or is shed) here.
	Admission *admit.Limiter
	// Fleet is the elastic container supervisor when WithElasticFleet is
	// set; Members is the membership it publishes scale events through.
	Fleet   *ejb.Supervisor
	Members *ejb.FleetMembership
	// Resilient is the retry decorator when WithRetries is set.
	Resilient *mvc.ResilientBusiness
	// Faults is the chaos injector when WithFaults is set: it counts
	// the faults fired in this App's own business tier, wherever that
	// tier runs.
	Faults *fault.Injector
	// Obs is the request tracer when WithObservability is set.
	Obs *obs.Tracer

	// local is the business tier this App runs itself (nil under
	// WithAppServer); tier is local, wrapped by Faults under WithFaults.
	local *mvc.LocalBusiness
	tier  mvc.Business

	regOnce  sync.Once
	registry *obs.Registry
	// faultLat times the durable engine's row faults from assembly on,
	// not from the first scrape of /metrics.
	faultLat *obs.HistogramVec
}

type config struct {
	db            *rdb.DB
	beanCache     int
	withBeanCache bool
	style         *style.RuleSet
	appServer     []string
	remotePages   bool
	skipDDL       bool
	withEdge      bool
	edgeCache     int
	edgeTTL       time.Duration

	faults         *fault.Schedule
	retries        int
	requestTimeout time.Duration
	maxStale       time.Duration

	withObs   bool
	slowTrace time.Duration
	slowQuery time.Duration

	withAdmission  bool
	maxConcurrency int
	admitQueue     int

	withFleet     bool
	fleetMin      int
	fleetMax      int
	fleetCapacity int
}

// Option configures New.
type Option func(*config)

// WithDatabase runs the application over an existing database (the
// schema must already match the model's DDL). Without it, New opens a
// fresh in-memory database and applies the generated DDL.
func WithDatabase(db *rdb.DB) Option {
	return func(c *config) { c.db = db; c.skipDDL = true }
}

// WithBeanCache enables the business-tier bean cache with the given
// capacity (<=0 selects the default): the first of Section 6's two
// cache levels.
func WithBeanCache(capacity int) Option {
	return func(c *config) { c.withBeanCache = true; c.beanCache = capacity }
}

// WithEdgeCache puts the ESI surrogate edge tier in front of the
// application, the second of Section 6's two cache levels: pages are
// served assembled from independently cached template fragments, each
// under its descriptor's cache policy, with stale-while-revalidate
// refresh and model-driven purge (operations push their written
// dependency tags to the edge), so a write purges precisely the
// dependent fragments. Cookie-carrying (personalized) requests bypass
// the edge and render on every request.
func WithEdgeCache(capacity int, ttl time.Duration) Option {
	return func(c *config) { c.withEdge = true; c.edgeCache = capacity; c.edgeTTL = ttl }
}

// WithCompiledStyle applies a presentation rule set as each page program
// compiles, once per program (the efficient mode of Section 5). The set's
// SiteViews style the pages of the site views they name. Its Devices
// choose a set on the User-Agent (the multi-device mode; see
// MultiDevice): each page then compiles once per device class, and
// responses vary by User-Agent. A rule that does not parse or lacks its
// placeholder, or a device profile without a name of its own, fails New.
func WithCompiledStyle(rs *style.RuleSet) Option {
	return func(c *config) { c.style = rs }
}

// WithAppServer routes the business tier through remote containers at
// the given addresses (Figure 6) instead of in-process services: the
// tier of the App that deployed them (DeployContainer).
func WithAppServer(addrs ...string) Option {
	return func(c *config) { c.appServer = addrs }
}

// WithRemotePages computes whole pages in the application server (one
// round trip per page via the container's deployed page service) instead
// of one remote call per unit. Requires WithAppServer.
func WithRemotePages() Option {
	return func(c *config) { c.remotePages = true }
}

// Deprecated: WithWireProtocol selects nothing — wire v2 is the only protocol.
func WithWireProtocol(string) Option { return func(*config) {} }

// WithRequestTimeout gives every request a deadline budget: the
// controller derives a context that expires after d, and every tier
// below — page service, bean cache, remote stub and container — observes
// it. Requests past their budget answer 504 (or a degraded stale bean
// when WithDegradedServing is also set).
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.requestTimeout = d }
}

// WithRetries retries failed idempotent unit reads up to n total
// attempts with jittered exponential backoff (operations are never
// retried). n <= 1 disables.
func WithRetries(n int) Option {
	return func(c *config) { c.retries = n }
}

// WithDegradedServing lets the bean cache serve TTL-expired beans no
// older than maxStale when the business tier fails — availability over
// freshness, bounded. Invalidated beans are removed outright, so
// degraded mode never serves data an operation has written over.
// Requires WithBeanCache.
func WithDegradedServing(maxStale time.Duration) Option {
	return func(c *config) { c.maxStale = maxStale }
}

// WithFaults injects deterministic chaos (latency spikes, error bursts,
// panics) into the App's own business tier under the seeded schedule —
// the fault-injection harness behind `webratio serve -chaos`. Faults
// fire where that tier runs: in process, in every fleet clone, and in
// every container the App deploys, below the web tier's retry and cache
// decorators, exactly where a flapping container would. New refuses it
// with WithAppServer: the chaos belongs to the App that deploys the
// containers.
func WithFaults(sched fault.Schedule) Option {
	return func(c *config) { s := sched; c.faults = &s }
}

// WithAdmission gates every controller action behind an admission
// limiter: at most maxConcurrency actions run at once, up to maxQueue
// more wait (briefly — a CoDel-style sojourn target sheds the queue
// before it stands), and excess load answers 503 with a drain-rate
// Retry-After instead of queueing toward collapse. Operations outrank
// interactive reads, which outrank crawler/bulk traffic; under a
// standing queue, bulk is shed on sight and a full queue displaces its
// newest lowest-class waiter for a higher-class arrival. maxQueue <= 0
// selects 4x maxConcurrency.
func WithAdmission(maxConcurrency, maxQueue int) Option {
	return func(c *config) {
		c.withAdmission = true
		c.maxConcurrency = maxConcurrency
		c.admitQueue = maxQueue
	}
}

// WithElasticFleet self-hosts an elastic application-server fleet:
// between min and max container clones (each with the given instance
// capacity; <=0 selects 8) are spawned in-process over the app's
// database, published through a FleetMembership the client stub
// subscribes to, and supervised — queue-depth and utilization signals
// scale the fleet up, sustained idleness drains and retires clones
// without failing an in-flight call. Mutually exclusive with
// WithAppServer (which targets an external, fixed fleet).
func WithElasticFleet(min, max, capacity int) Option {
	return func(c *config) {
		c.withFleet = true
		c.fleetMin = min
		c.fleetMax = max
		c.fleetCapacity = capacity
	}
}

// New generates all artifacts of the model (validating it first unless it
// is sealed) and assembles the runtime.
func New(model *webml.Model, opts ...Option) (*App, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxStale > 0 && !cfg.withBeanCache {
		return nil, fmt.Errorf("webmlgo: WithDegradedServing requires WithBeanCache")
	}
	// A broken rule fails here, before any page is served.
	styler, err := style.NewStyler(cfg.style)
	if err != nil {
		return nil, err
	}
	gen, err := codegen.New(model)
	if err != nil {
		return nil, err
	}
	art, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	app := &App{Model: model, Artifacts: art}

	app.DB = cfg.db
	if app.DB == nil {
		app.DB = rdb.Open()
	}
	if !cfg.skipDDL {
		for _, stmt := range art.DDL {
			if _, err := app.DB.Exec(stmt); err != nil {
				return nil, fmt.Errorf("webmlgo: applying DDL: %w", err)
			}
		}
	}

	// The App's own business tier is built once, here: the local
	// placement, the fleet's clones and DeployContainer all serve it.
	if len(cfg.appServer) > 0 {
		if cfg.faults != nil {
			return nil, fmt.Errorf("webmlgo: WithFaults with WithAppServer: the chaos belongs to the App that deploys the containers")
		}
	} else {
		app.local = mvc.NewLocalBusiness(app.DB)
		app.tier = app.local
		if cfg.faults != nil {
			app.Faults = fault.New(*cfg.faults)
			app.tier = fault.WrapBusiness(app.local, app.Faults)
		}
	}

	// Placement: local, application-server, or self-hosted elastic
	// fleet — optionally cached.
	switch {
	case cfg.withFleet:
		if len(cfg.appServer) > 0 {
			return nil, fmt.Errorf("webmlgo: WithElasticFleet and WithAppServer are mutually exclusive")
		}
		capacity := cfg.fleetCapacity
		if capacity <= 0 {
			capacity = 8
		}
		app.Members = ejb.NewFleetMembership()
		remote, err := ejb.DialMembership(app.Members)
		if err != nil {
			return nil, err
		}
		app.Remote = remote
		app.Business = remote
		spawn := func() (*ejb.Clone, error) {
			ctr, addr, err := app.DeployContainer(capacity, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			return &ejb.Clone{Addr: addr, Ctr: ctr}, nil
		}
		app.Fleet = ejb.NewSupervisor(spawn, app.Members, cfg.fleetMin, cfg.fleetMax)
		app.Fleet.ClientInFlight = remote.InFlight
		if err := app.Fleet.Start(); err != nil {
			return nil, err
		}
	case len(cfg.appServer) > 0:
		remote, err := ejb.Dial(cfg.appServer...)
		if err != nil {
			return nil, err
		}
		app.Remote = remote
		app.Business = remote
	default:
		app.Business = app.tier
	}
	// Resilience decorators stack below the caches: retries absorb what
	// they can of the tier's failures, and the bean cache's degraded
	// mode covers the rest.
	if cfg.retries > 1 {
		app.Resilient = mvc.NewResilientBusiness(app.Business, 1)
		app.Resilient.MaxAttempts = cfg.retries
		app.Business = app.Resilient
	}
	if cfg.withBeanCache {
		app.BeanCache = cache.NewBeanCache(cfg.beanCache)
		cached := mvc.NewCachedBusiness(app.Business, app.BeanCache)
		cached.MaxStaleness = cfg.maxStale
		app.Business = cached
	}
	if cfg.withEdge {
		// In-process write-event bus: every successful operation pushes
		// its written tags to the edge, after the bean cache (inner
		// decorator) has already invalidated its own level.
		app.Business = &mvc.NotifyingBusiness{Inner: app.Business, OnWrite: func(tags []string) {
			if app.Edge != nil {
				app.Edge.Invalidate(tags...)
			}
		}}
	}

	app.Renderer = render.NewEngine(art.Repo)
	app.Renderer.Styler = styler

	app.Controller = mvc.NewController(art.Repo, app.Business, app.Renderer)
	app.Controller.RequestTimeout = cfg.requestTimeout
	if cfg.withAdmission {
		app.Admission = admit.NewLimiter(cfg.maxConcurrency, cfg.admitQueue)
		app.Controller.Admission = app.Admission
	}
	if cfg.remotePages {
		if app.Remote == nil {
			return nil, fmt.Errorf("webmlgo: WithRemotePages requires WithAppServer")
		}
		app.Controller.Pages = app.Remote.Pages()
	}
	if cfg.withEdge {
		app.Controller.EdgeFragments = true
		app.Edge = edge.New(app.Controller, cfg.edgeCache, cfg.edgeTTL)
		app.Edge.BypassCookie = "WSESSION"
		app.Edge.VaryUserAgent = app.Renderer.VariesByUserAgent()
	}
	// A hand-tuned query injected via OverrideQuery (Section 6) must be
	// SQL the data tier parses and, unless it is an INSERT (which has no
	// plan), plans against its schema; and it must not leave the
	// replaced SQL's compiled plan in the engine's cache.
	art.Repo.OnQueryOverride = func(_, oldQuery, newQuery string) error {
		st, err := rdb.ParseStatement(newQuery)
		if err != nil {
			return err
		}
		if _, insert := st.(*rdb.InsertStmt); !insert {
			if _, err := app.DB.Explain(newQuery); err != nil {
				return err
			}
		}
		app.DB.InvalidatePlan(oldQuery)
		return nil
	}
	if app.DB.EngineName() == "durable" {
		app.faultLat = obs.NewHistogramVec("webml_rdb_row_fault_seconds",
			"Evicted-row fault latency by access mode.", "mode")
		app.DB.AddFaultObserver(func(d time.Duration) { app.faultLat.Observe("read", d) })
	}
	app.wireObservability(&cfg)
	return app, nil
}

// Handler returns the application's HTTP entry point: the edge surrogate
// when WithEdgeCache was set, else the Controller directly.
func (a *App) Handler() http.Handler {
	if a.Edge != nil {
		return a.Edge
	}
	return a.Controller
}

// LocalBusiness returns the business tier the App runs itself — in
// process, in its fleet's clones and in every container it deploys — or
// nil when the app runs against an application server. Use it to
// register plug-in unit services and custom components.
func (a *App) LocalBusiness() *mvc.LocalBusiness { return a.local }

// DeployContainer deploys this App's business tier — the unit and
// operation services of LocalBusiness (chaos included under WithFaults)
// and a page service over Repo — into an application-server container
// listening on addr and returns the bound address: the server half of
// Figure 6. A separate App created with WithAppServer(addr) then acts as
// the web tier; add WithRemotePages to compute whole pages in one round
// trip. A WithAppServer App has no business tier of its own to deploy.
func (a *App) DeployContainer(capacity int, addr string) (*ejb.Container, string, error) {
	if a.tier == nil {
		return nil, "", fmt.Errorf("webmlgo: DeployContainer on a WithAppServer app: its business tier is in the containers it calls")
	}
	ctr := ejb.NewContainer(a.tier, capacity)
	ctr.DeployPages(&mvc.PageService{Repo: a.Artifacts.Repo, Business: a.tier})
	bound, err := ctr.Serve(addr)
	if err != nil {
		return nil, "", err
	}
	return ctr, bound, nil
}

// Repo exposes the generated descriptor repository (for query overrides
// and inspection). Its templates are the generated skeletons: the style
// options style each page's render program, not the stored template.
func (a *App) Repo() *descriptor.Repository { return a.Artifacts.Repo }

// Close shuts down the app's owned resources: the elastic fleet (every
// clone drains and closes), the remote client, and the edge surrogate's
// refresh workers. Apps without those options need no Close.
func (a *App) Close() {
	if a.Fleet != nil {
		a.Fleet.Stop()
	}
	if a.Remote != nil {
		a.Remote.Close()
	}
	if a.Edge != nil {
		a.Edge.Close()
	}
}
