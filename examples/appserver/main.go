// Command appserver demonstrates the application-server architecture of
// Figure 6: the business tier (page/unit/operation services) deployed in
// a separate container process boundary, reached by the web tier over
// the network — so that "non-Web applications share the business logic
// with Web applications" and service capacity adapts at runtime.
//
// The demo runs both halves in one process over a real TCP socket:
//
//	go run ./examples/appserver
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"webmlgo"
	"webmlgo/internal/fixture"
)

func main() {
	model := fixture.Figure1Model()

	// --- Backend half: database + deployed business components. ---
	backend, err := webmlgo.New(model)
	if err != nil {
		log.Fatal(err)
	}
	if err := fixture.Seed(backend.DB); err != nil {
		log.Fatal(err)
	}
	container, addr, err := backend.DeployContainer(8, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer container.Close()
	fmt.Printf("1. business components deployed in container at %s (capacity 8)\n", addr)

	// --- Web tier: controller + view, business calls go over TCP. ---
	web, err := webmlgo.New(model, webmlgo.WithAppServer(addr))
	if err != nil {
		log.Fatal(err)
	}
	defer web.Remote.Close()

	req := httptest.NewRequest(http.MethodGet, "/page/volumePage?volume=1", nil)
	rr := httptest.NewRecorder()
	web.Handler().ServeHTTP(rr, req)
	fmt.Printf("2. web tier served /page/volumePage?volume=1 -> %d (%d bytes)\n",
		rr.Code, rr.Body.Len())
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "TODS Volume 27") {
		log.Fatal("remote page computation failed")
	}

	// --- A non-Web client shares the same business logic (Section 4). ---
	d := backend.Repo().Unit("volIndex")
	bean, err := web.Remote.ComputeUnit(context.Background(), d, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. non-Web client listed %d volumes through the same components\n", len(bean.Nodes))

	// --- Page EJBs: the whole page computes server-side in one call. ---
	web2, err := webmlgo.New(model, webmlgo.WithAppServer(addr), webmlgo.WithRemotePages())
	if err != nil {
		log.Fatal(err)
	}
	defer web2.Remote.Close()
	before := container.Metrics().Served
	rr2 := httptest.NewRecorder()
	web2.Handler().ServeHTTP(rr2, httptest.NewRequest(http.MethodGet, "/page/volumePage?volume=1", nil))
	fmt.Printf("3b. page-EJB deployment served the 3-unit page with %d container call(s)\n",
		container.Metrics().Served-before)

	// --- Elastic scaling at runtime. ---
	container.SetCapacity(2)
	fmt.Printf("4. container rescaled: %+v\n", container.Metrics())
	container.SetCapacity(16)
	fmt.Printf("5. and back up: %+v\n", container.Metrics())
}
