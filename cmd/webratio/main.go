// Command webratio is the development CLI: it validates models,
// generates the implementation artifacts to disk (unit/page descriptors,
// controller configuration, template skeletons, DDL), reports model
// statistics, and serves a generated application.
//
// Built-in models are addressed by name, mirroring how the paper's tool
// starts from a stored specification:
//
//	acm                 the Figure 1 ACM Digital Library fragment
//	acer                the full Acer-Euro-shaped application (556 pages)
//	acer:<sv>:<pg>:<un> a custom-sized Acer-Euro-shaped application
//
// Usage:
//
//	webratio validate -model acm
//	webratio stats    -model acer
//	webratio generate -model acm -out ./generated [-style b2c]
//	webratio serve    -model acm -addr :8080 [-style b2c] [-cache]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"webmlgo"
	"webmlgo/internal/codegen"
	"webmlgo/internal/er"
	"webmlgo/internal/fault"
	"webmlgo/internal/fixture"
	"webmlgo/internal/style"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "validate":
		cmdValidate(args)
	case "generate":
		cmdGenerate(args)
	case "stats":
		cmdStats(args)
	case "serve":
		cmdServe(args)
	case "container":
		cmdContainer(args)
	case "export":
		cmdExport(args)
	case "import":
		cmdImport(args)
	case "diagram":
		cmdDiagram(args)
	case "lint":
		cmdLint(args)
	case "bootstrap":
		cmdBootstrap(args)
	default:
		usage()
		os.Exit(2)
	}
}

// cmdExport writes a model as its XML specification document.
func cmdExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	model := fs.String("model", "acm", "model name")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args) //nolint:errcheck
	m, _, err := loadModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	data, err := webmlgo.MarshalModel(m)
	if err != nil {
		log.Fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(data) //nolint:errcheck
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported model %q (%d bytes) to %s\n", m.Name, len(data), *out)
}

// cmdImport loads an XML specification document, validates it, and
// reports its statistics (round-trip check for hand-edited documents).
func cmdImport(args []string) {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	fs.Parse(args) //nolint:errcheck
	if *in == "" {
		log.Fatal("webratio: import requires -in <file>")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	m, err := webmlgo.UnmarshalModel(data)
	if err != nil {
		log.Fatal(err)
	}
	st := m.Stats()
	fmt.Printf("imported model %q: %d site views, %d pages, %d units, %d operations, %d links — valid\n",
		m.Name, st.SiteViews, st.Pages, st.Units, st.Operations, st.Links)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: webratio <validate|generate|stats|serve> [flags]
  validate -model <name>                 check the model
  generate -model <name> -out <dir>      emit descriptors, config, templates, DDL
  stats    -model <name>                 print model and artifact statistics
  serve    -model <name> -addr <addr>    run the generated application
           [-data-dir dir]               durable data tier (WAL + B-tree; survives restarts)
           [-page-cache n]               buffer-pool pages for -data-dir (default 2048)
           [-resident-rows n]            row-cache budget for -data-dir (0 = unlimited)
           [-cache]                      the two cache levels: bean cache + ESI edge tier
           [-timeout d] [-retries n]     per-request deadline / unit-read retries
           [-max-stale d]                degraded-mode staleness bound (needs -cache)
           [-chaos] [-chaos-seed n]      seeded fault injection below the resilience layer
           [-drain d]                    graceful-shutdown drain budget (default 5s)
           [-trace] [-slow-trace d]      cross-tier request tracing at /debug/traces
           [-trace-sample n]             trace 1 in n requests (production setting)
           [-slow-query d]               slow-query flight recorder at /debug/queries
                                         (tracing on; 0 = off, the default)
           [-debug]                      net/http/pprof at /debug/pprof/
           [-app-server a1,a2]           remote business tier (container addresses)
           [-max-concurrency n]          admission control: concurrent-action cap (sheds 503)
           [-admit-queue n]              admission queue depth (default 4x cap)
           [-autoscale]                  self-hosted elastic container fleet
           [-min-containers n]           fleet floor (default 1; needs -autoscale)
           [-max-containers n]           fleet ceiling (default 4; needs -autoscale)
           (always mounted: /metrics, /healthz, /debug/traces,
            /debug/queries, /debug/fleet — the debug endpoints answer
            404 until their option is on)
  container -model <name> -addr <addr>   run the application-server tier alone
           [-capacity n]                 concurrent business invocations (default 16)
  export   -model <name> [-out file]     write the model's XML document
  import   -in <file>                    load and validate an XML document
  diagram  -model <name> [-out file]     emit the hypertext diagram (DOT)
  lint     -model <name>                 report design warnings
  bootstrap -data-dir <dir> -addr <a>    serve a default site over an existing database`)
}

// loadModel resolves a model name: a built-in ("acm", "acer",
// "acer:<sv>:<pg>:<un>") or an XML specification document
// ("file:<path>").
func loadModel(name string) (*webml.Model, bool, error) {
	switch {
	case strings.HasPrefix(name, "file:"):
		path := strings.TrimPrefix(name, "file:")
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, false, err
		}
		m, err := webmlgo.UnmarshalModel(data)
		return m, false, err
	case name == "acm":
		return fixture.Figure1Model(), false, nil
	case name == "acer":
		m, err := workload.Generate(workload.AcerEuro())
		return m, true, err
	case strings.HasPrefix(name, "acer:"):
		parts := strings.Split(name, ":")
		if len(parts) != 4 {
			return nil, false, fmt.Errorf("webratio: want acer:<siteviews>:<pages>:<units>, got %q", name)
		}
		var nums [3]int
		for i, p := range parts[1:] {
			n, err := strconv.Atoi(p)
			if err != nil {
				return nil, false, fmt.Errorf("webratio: bad number %q in %q", p, name)
			}
			nums[i] = n
		}
		m, err := workload.Generate(workload.Spec{
			SiteViews: nums[0], Pages: nums[1], Units: nums[2], Seed: 2003,
		})
		return m, true, err
	}
	return nil, false, fmt.Errorf("webratio: unknown model %q (try acm, acer, acer:3:24:132, file:app.xml)", name)
}

func styleByName(name string) (*style.RuleSet, error) {
	switch name {
	case "":
		return nil, nil
	case "b2c":
		return style.B2CRuleSet(), nil
	case "b2b":
		return style.B2BRuleSet(), nil
	case "intranet":
		return style.IntranetRuleSet(), nil
	case "mobile":
		return style.MobileRuleSet(), nil
	}
	return nil, fmt.Errorf("webratio: unknown style %q (b2c, b2b, intranet, mobile)", name)
}

func cmdValidate(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	model := fs.String("model", "acm", "model name")
	fs.Parse(args)                 //nolint:errcheck // ExitOnError
	m, _, err := loadModel(*model) // every loader validates
	if err != nil {
		log.Fatal(err)
	}
	st := m.Stats()
	fmt.Printf("model %q is valid: %d site views, %d pages, %d units, %d operations, %d links\n",
		m.Name, st.SiteViews, st.Pages, st.Units, st.Operations, st.Links)
}

func cmdGenerate(args []string) {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	model := fs.String("model", "acm", "model name")
	out := fs.String("out", "generated", "output directory")
	styleName := fs.String("style", "", "compile presentation rules (b2c, b2b, intranet, mobile)")
	fs.Parse(args) //nolint:errcheck
	m, _, err := loadModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := styleByName(*styleName)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	g, err := codegen.New(m)
	if err != nil {
		log.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		log.Fatal(err)
	}
	if rs != nil {
		if _, err := style.CompileTemplates(art.Repo, rs); err != nil {
			log.Fatal(err)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := art.Repo.SaveDir(*out); err != nil {
		log.Fatal(err)
	}
	ddl := strings.Join(art.DDL, ";\n\n") + ";\n"
	if err := os.WriteFile(*out+"/schema.sql", []byte(ddl), 0o644); err != nil {
		log.Fatal(err)
	}
	units, pages, templates := art.Repo.Counts()
	fmt.Printf("generated %d unit descriptors, %d page descriptors, %d templates, %d mappings, %d DDL statements into %s in %v\n",
		units, pages, templates, len(art.Repo.Config().Mappings), len(art.DDL), *out, time.Since(start).Round(time.Millisecond))
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	model := fs.String("model", "acm", "model name")
	fs.Parse(args) //nolint:errcheck
	m, _, err := loadModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	g, err := codegen.New(m)
	if err != nil {
		log.Fatal(err)
	}
	art, err := g.Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(art.Stats.String())
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "acm", "model name")
	addr := fs.String("addr", ":8080", "listen address")
	styleName := fs.String("style", "b2c", "presentation rule set")
	cacheOn := fs.Bool("cache", false, "enable the two cache levels: the bean cache and the ESI surrogate edge tier")
	rows := fs.Int("rows", 50, "rows per entity for synthetic models")
	dataDir := fs.String("data-dir", "", "durable storage directory (WAL + page-backed B-tree; empty = in-memory)")
	pageCache := fs.Int("page-cache", 0, "buffer-pool pages for -data-dir (4 KiB each; 0 = default 2048)")
	residentRows := fs.Int("resident-rows", 0, "max decoded rows the row cache keeps for -data-dir (0 = unlimited; the least recently used page out and fault back on demand)")
	timeout := fs.Duration("timeout", 0, "per-request deadline budget (0 = none)")
	retries := fs.Int("retries", 0, "max attempts per idempotent unit read (<=1 = no retries)")
	maxStale := fs.Duration("max-stale", 0, "serve TTL-expired beans up to this old when the business tier fails (0 = off; needs -cache)")
	chaos := fs.Bool("chaos", false, "inject deterministic faults into this process's business tier, in process or in its -autoscale fleet (refused with -app-server)")
	chaosSeed := fs.Int64("chaos-seed", 2003, "seed of the -chaos fault schedule")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout on SIGINT/SIGTERM")
	trace := fs.Bool("trace", false, "trace requests across tiers (/debug/traces)")
	slowTrace := fs.Duration("slow-trace", 0, "slow-trace exemplar threshold (0 = default 250ms; needs -trace)")
	traceSample := fs.Int("trace-sample", 1, "trace 1 in n requests (1 = every request; needs -trace)")
	slowQuery := fs.Duration("slow-query", 0, "slow-query flight recorder (/debug/queries) capturing queries at least this slow; turns tracing on (0 = off)")
	debug := fs.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
	appServer := fs.String("app-server", "", "comma-separated container addresses (empty = in-process business tier)")
	maxConcurrency := fs.Int("max-concurrency", 0, "admission control: max concurrent actions (0 = unlimited, no admission gate)")
	admitQueue := fs.Int("admit-queue", 0, "admission queue depth (<=0 = 4x -max-concurrency; needs -max-concurrency)")
	autoscale := fs.Bool("autoscale", false, "self-hosted elastic container fleet (mutually exclusive with -app-server)")
	minContainers := fs.Int("min-containers", 1, "fleet size floor (needs -autoscale)")
	maxContainers := fs.Int("max-containers", 4, "fleet size ceiling (needs -autoscale)")
	fs.Parse(args) //nolint:errcheck
	m, synthetic, err := loadModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := styleByName(*styleName)
	if err != nil {
		log.Fatal(err)
	}
	var opts []webmlgo.Option
	if rs != nil {
		opts = append(opts, webmlgo.WithCompiledStyle(rs))
	}
	// Durable data tier: open (or recover) the WAL + page-file directory
	// before the app assembles. A non-empty directory means the schema
	// and content survived a restart, so DDL and seeding are skipped.
	fresh := true
	if *dataDir != "" {
		ddb, err := webmlgo.OpenDurableDatabasePaged(*dataDir, *pageCache, *residentRows)
		if err != nil {
			log.Fatal(err)
		}
		defer ddb.Close()
		fresh = len(ddb.TableNames()) == 0
		opts = append(opts, webmlgo.WithDatabase(ddb))
	}
	if *cacheOn {
		opts = append(opts, webmlgo.WithBeanCache(8192), webmlgo.WithEdgeCache(8192, time.Minute))
	}
	if *appServer != "" && *autoscale {
		log.Fatal("webratio: -autoscale and -app-server are mutually exclusive")
	}
	if *appServer != "" {
		opts = append(opts, webmlgo.WithAppServer(strings.Split(*appServer, ",")...))
	}
	if *autoscale {
		opts = append(opts, webmlgo.WithElasticFleet(*minContainers, *maxContainers, 16))
	}
	if *maxConcurrency > 0 {
		opts = append(opts, webmlgo.WithAdmission(*maxConcurrency, *admitQueue))
	}
	if *timeout > 0 {
		opts = append(opts, webmlgo.WithRequestTimeout(*timeout))
	}
	if *retries > 1 {
		opts = append(opts, webmlgo.WithRetries(*retries))
	}
	if *maxStale > 0 {
		opts = append(opts, webmlgo.WithDegradedServing(*maxStale))
	}
	if *trace || *slowQuery > 0 {
		opts = append(opts, webmlgo.WithObservability(*slowTrace, *slowQuery))
	}
	if *chaos {
		opts = append(opts, webmlgo.WithFaults(fault.Schedule{
			Seed:        *chaosSeed,
			LatencyProb: 0.05,
			Latency:     10 * time.Millisecond,
			ErrorProb:   0.05,
			PanicProb:   0.01,
		}))
	}
	app, err := webmlgo.New(m, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		if fresh {
			// WithDatabase skips DDL; a brand-new directory still needs
			// the schema, and the statements land in the WAL like any
			// other commit.
			for _, stmt := range app.Artifacts.DDL {
				if _, err := app.DB.Exec(stmt); err != nil {
					log.Fatalf("webratio: applying DDL to %s: %v", *dataDir, err)
				}
			}
			log.Printf("webratio: durable data tier initialized at %s", *dataDir)
		} else {
			log.Printf("webratio: durable data tier recovered from %s (%d tables)", *dataDir, len(app.DB.TableNames()))
		}
	}
	if app.Obs != nil && *traceSample > 1 {
		app.Obs.SampleEvery = *traceSample
	}
	if app.Edge != nil {
		defer app.Edge.Close()
		log.Printf("webratio: edge tier on (fragments assembled at the surrogate; purge via POST /edge/invalidate)")
	}
	if *chaos {
		log.Printf("webratio: chaos on (seed %d): 5%% latency spikes, 5%% errors, 1%% panics below the resilience layer", *chaosSeed)
	}
	if app.Fleet != nil {
		defer app.Fleet.Stop()
		log.Printf("webratio: elastic fleet on (%d..%d containers; scale events at /healthz)", *minContainers, *maxContainers)
	} else if app.Remote != nil {
		log.Printf("webratio: business tier on %s (framed wire, level-batched)", *appServer)
	}
	if app.Admission != nil {
		log.Printf("webratio: admission control on (%d slots, queue %d; overflow sheds 503 + Retry-After)",
			*maxConcurrency, app.Admission.MaxQueue)
	}
	if *slowQuery > 0 {
		log.Printf("webratio: slow-query flight recorder on (threshold %v; captures at /debug/queries)", *slowQuery)
	}
	if fresh {
		if synthetic {
			if err := workload.Populate(app.DB, *rows, 7); err != nil {
				log.Fatal(err)
			}
		} else if *model == "acm" {
			if err := fixture.Seed(app.DB); err != nil {
				log.Fatal(err)
			}
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", app.Handler())
	mux.Handle("/healthz", app.HealthHandler())
	mux.Handle("/metrics", app.MetricsHandler())
	mux.Handle("/debug/traces", app.TracesHandler())
	mux.Handle("/debug/queries", app.QueriesHandler())
	mux.Handle("/debug/fleet", app.FleetHandler())
	if *debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("webratio: pprof on /debug/pprof/")
	}
	srv := &http.Server{Addr: *addr, Handler: mux}

	// Graceful shutdown: SIGINT/SIGTERM stops accepting, in-flight
	// requests drain within the -drain budget, then the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()

	home := "/page/" + m.SiteViews[0].Home
	log.Printf("webratio: serving model %q on %s (try %s; probe /healthz)", m.Name, *addr, home)
	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("webratio: shutting down (draining up to %v)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("webratio: drain incomplete: %v", err)
			srv.Close() //nolint:errcheck // last resort
		}
	}
}

// cmdContainer runs the application-server tier of Figure 6 on its own:
// a container serving the model's business services to remote web tiers
// (webratio serve -app-server <addr>) over the framed wire.
func cmdContainer(args []string) {
	fs := flag.NewFlagSet("container", flag.ExitOnError)
	model := fs.String("model", "acm", "model name")
	addr := fs.String("addr", ":9090", "listen address")
	capacity := fs.Int("capacity", 16, "concurrent business invocations")
	rows := fs.Int("rows", 50, "rows per entity for synthetic models")
	fs.Parse(args) //nolint:errcheck
	m, synthetic, err := loadModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	// Build the schema and data the same way serve does; in this
	// reproduction every process owns an in-memory database copy.
	app, err := webmlgo.New(m)
	if err != nil {
		log.Fatal(err)
	}
	if synthetic {
		if err := workload.Populate(app.DB, *rows, 7); err != nil {
			log.Fatal(err)
		}
	} else if *model == "acm" {
		if err := fixture.Seed(app.DB); err != nil {
			log.Fatal(err)
		}
	}
	ctr, bound, err := app.DeployContainer(*capacity, *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("webratio: container serving model %q on %s (capacity %d, framed wire)", m.Name, bound, *capacity)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("webratio: container shutting down")
	ctr.Close()
}

// cmdDiagram is wired from main via the "diagram" subcommand.
func cmdDiagram(args []string) {
	fs := flag.NewFlagSet("diagram", flag.ExitOnError)
	model := fs.String("model", "acm", "model name")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args) //nolint:errcheck
	m, _, err := loadModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	dot := codegen.Diagram(m)
	if *out == "" {
		fmt.Print(dot)
		return
	}
	if err := os.WriteFile(*out, []byte(dot), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote WebML diagram (DOT) for %q to %s\n", m.Name, *out)
}

// cmdLint reports advisory design warnings for a model.
func cmdLint(args []string) {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	model := fs.String("model", "acm", "model name")
	fs.Parse(args) //nolint:errcheck
	m, _, err := loadModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	warnings := webmlgo.Lint(m)
	if len(warnings) == 0 {
		fmt.Printf("model %q: no warnings\n", m.Name)
		return
	}
	for _, w := range warnings {
		fmt.Printf("warning: %s\n", w)
	}
	fmt.Printf("%d warning(s)\n", len(warnings))
}

// cmdBootstrap reverse-engineers a durable database directory (the one
// serve -data-dir writes), derives the default browse hypertext, and
// serves it — an application from nothing but data (Section 1's
// "pre-existing data sources").
func cmdBootstrap(args []string) {
	fs := flag.NewFlagSet("bootstrap", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "durable database directory (from serve -data-dir)")
	addr := fs.String("addr", ":8080", "listen address")
	export := fs.String("export", "", "write the derived model's XML document here instead of serving")
	fs.Parse(args) //nolint:errcheck
	if *dataDir == "" {
		log.Fatal("webratio: bootstrap requires -data-dir <dir>")
	}
	if _, err := os.Stat(*dataDir); err != nil {
		log.Fatal(err) // opening would create an empty directory
	}
	db, err := webmlgo.OpenDurableDatabasePaged(*dataDir, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if len(db.TableNames()) == 0 {
		log.Fatalf("webratio: bootstrap: %s holds no tables", *dataDir)
	}
	if *export != "" {
		schema, issues, err := er.Reverse(db)
		if err != nil {
			log.Fatal(err)
		}
		for _, is := range issues {
			log.Printf("warning: %s", is)
		}
		m, err := webml.DeriveDefaultHypertext("bootstrapped", schema)
		if err != nil {
			log.Fatal(err)
		}
		data, err := webmlgo.MarshalModel(m)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*export, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("derived model written to %s\n", *export)
		return
	}
	app, issues, err := webmlgo.Bootstrap("bootstrapped", db,
		webmlgo.WithCompiledStyle(webmlgo.B2CStyle()), webmlgo.WithBeanCache(4096))
	if err != nil {
		log.Fatal(err)
	}
	for _, is := range issues {
		log.Printf("warning: %s", is)
	}
	home := "/page/" + app.Model.SiteViews[0].Home
	log.Printf("webratio: bootstrapped application on %s (try %s)", *addr, home)
	log.Fatal(http.ListenAndServe(*addr, app.Handler()))
}
