package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"webmlgo"
	"webmlgo/internal/codegen"
	"webmlgo/internal/ejb"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/webml"
	"webmlgo/internal/workload"
)

const (
	rowsPerEntity = 200 // every generated page lists a whole entity, so this is page size
	populateSeed  = 7
	beanCacheCap  = 8192
	edgeCacheCap  = 8192
	edgeTTL       = 10 * time.Minute
	sessionCount  = 64
)

// stack is the serve-full stack under test, assembled from the program's
// public constructors only: Acer-Euro model, durable rdb, one container
// served over loopback, the web tier wired to it over the framed wire, and
// an http.Server in front.
type stack struct {
	dir   string
	model *webml.Model
	db    *rdb.DB
	ctr   *ejb.Container
	app   *webmlgo.App
	srv   *http.Server
	done  chan error // srv.Serve's result
	addr  string

	// populatedRows, residentRows, filePages and poolPages describe the
	// data tier; the last three are zero unless the workload is cold.
	populatedRows, residentRows, filePages, poolPages int
}

// buildStack sets the stack up in a fresh directory under root. With cold
// set the populated database is checkpointed, closed and reopened with a
// quarter of its rows resident and half of its pages pooled. A non-nil rec
// interposes the tracing shims (trace.go); they pass through until rec is
// switched on.
func buildStack(root string, cold bool, rec *recorder) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close() //nolint:errcheck // the set-up error is the one to report
		}
	}()
	if st.dir, err = os.MkdirTemp(root, "data-"); err != nil {
		return st, err
	}
	if st.model, err = workload.Generate(workload.AcerEuro()); err != nil {
		return st, err
	}
	if st.db, err = rdb.OpenDurableOpts(st.dir, rdb.DurableOptions{}); err != nil {
		return st, err
	}
	gen, err := codegen.New(st.model)
	if err != nil {
		return st, err
	}
	art, err := gen.Generate()
	if err != nil {
		return st, err
	}
	for _, stmt := range art.DDL {
		if _, err = st.db.Exec(stmt); err != nil {
			return st, fmt.Errorf("applying DDL: %w", err)
		}
	}
	if err = workload.Populate(st.db, rowsPerEntity, populateSeed); err != nil {
		return st, err
	}
	for _, t := range st.db.TableNames() {
		n, err := st.db.RowCount(t)
		if err != nil {
			return st, err
		}
		st.populatedRows += n
	}
	if cold {
		if err = st.db.Close(); err != nil { // Close checkpoints
			return st, err
		}
		st.db = nil
		fi, err := os.Stat(filepath.Join(st.dir, "pages.db"))
		if err != nil {
			return st, err
		}
		st.filePages = int(fi.Size() / 4096)
		st.residentRows = st.populatedRows / 4
		st.poolPages = st.filePages / 2
		st.db, err = rdb.OpenDurableOpts(st.dir, rdb.DurableOptions{
			ResidentRows: st.residentRows, PoolPages: st.poolPages})
		if err != nil {
			return st, err
		}
	}

	var business mvc.Business = mvc.NewLocalBusiness(st.db)
	if rec != nil {
		business = &businessShim{next: business, rec: rec, layer: spContainer}
	}
	st.ctr = ejb.NewContainer(business, 16)
	st.ctr.DeployPages(&mvc.PageService{Repo: art.Repo, Business: business})
	ctrAddr, err := st.ctr.Serve("127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.app, err = webmlgo.New(st.model,
		webmlgo.WithDatabase(st.db),
		webmlgo.WithCompiledStyle(webmlgo.B2CStyle()),
		webmlgo.WithAppServer(ctrAddr),
		webmlgo.WithWireProtocol(ejb.WireFramed),
		webmlgo.WithBeanCache(beanCacheCap),
		webmlgo.WithEdgeCache(edgeCacheCap, edgeTTL),
		webmlgo.WithAdmission(64, 256),
		webmlgo.WithRequestTimeout(5*time.Second))
	if err != nil {
		return st, err
	}
	handler := st.app.Handler()
	if rec != nil {
		if handler, err = installShims(st.app, rec); err != nil {
			return st, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.addr = ln.Addr().String()
	st.srv = &http.Server{Handler: handler}
	st.done = make(chan error, 1)
	go func() { st.done <- st.srv.Serve(ln) }()
	return st, nil
}

// stopServing shuts down the HTTP server, the web tier and the container,
// and waits for the server goroutine. It is safe to call twice.
func (st *stack) stopServing() error {
	var errs []error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, st.srv.Shutdown(ctx))
		cancel()
		if err := <-st.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		st.srv = nil
	}
	if st.app != nil {
		st.app.Close()
		st.app = nil
	}
	if st.ctr != nil {
		errs = append(errs, st.ctr.Close())
		st.ctr = nil
	}
	return errors.Join(errs...)
}

// closeDB closes the database. It is safe to call twice.
func (st *stack) closeDB() error {
	if st.db == nil {
		return nil
	}
	db := st.db
	st.db = nil
	return db.Close()
}

// close stops everything and removes the data directory. It is safe to
// call twice.
func (st *stack) close() error {
	err := errors.Join(st.stopServing(), st.closeDB())
	if st.dir != "" {
		err = errors.Join(err, os.RemoveAll(st.dir))
		st.dir = ""
	}
	return err
}
