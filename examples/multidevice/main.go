// Command multidevice demonstrates the runtime presentation mode of
// Section 5: the same template skeleton served to different access
// devices, with the XSLT-like rule set chosen per request from the
// User-Agent header ("the actual pages seen by the user have a
// presentation dynamically adapted to the access device").
//
//	go run ./examples/multidevice            # render for two devices
//	go run ./examples/multidevice -serve :8080
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"webmlgo"
)

func buildModel() *webmlgo.Model {
	schema := &webmlgo.Schema{
		Entities: []*webmlgo.Entity{
			{Name: "Event", Attributes: []webmlgo.Attribute{
				{Name: "Title", Type: webmlgo.String, Required: true},
				{Name: "Location", Type: webmlgo.String},
			}},
		},
	}
	b := webmlgo.NewBuilder("events", schema)
	sv := b.SiteView("public", "Events")
	home := sv.Page("home", "Upcoming Events").Layout("one-column")
	home.Index("eventIndex", "Event", "Title", "Location")
	return b.MustBuild()
}

func main() {
	serve := flag.String("serve", "", "listen address (empty: render for two devices and exit)")
	flag.Parse()

	// Runtime styling: skeletons are published as-is, and the rule set's
	// device profiles pick the presentation per request — "more expensive
	// in terms of execution time... but more flexible and may be very
	// effective for multi-device applications". Each page is styled once
	// per device class, when its program compiles.
	app, err := webmlgo.New(buildModel(),
		webmlgo.WithCompiledStyle(webmlgo.MultiDevice(webmlgo.B2CStyle())))
	if err != nil {
		log.Fatal(err)
	}
	seeds := []string{
		`INSERT INTO event (title, location) VALUES ('CIDR 2003', 'Asilomar'),
			('SIGMOD 2003', 'San Diego'), ('VLDB 2003', 'Berlin')`,
	}
	for _, s := range seeds {
		if _, err := app.DB.Exec(s); err != nil {
			log.Fatal(err)
		}
	}

	if *serve != "" {
		log.Printf("multidevice: listening on %s (vary your User-Agent on /page/home)", *serve)
		log.Fatal(http.ListenAndServe(*serve, app.Handler()))
	}

	render := func(ua string) string {
		req := httptest.NewRequest(http.MethodGet, "/page/home", nil)
		req.Header.Set("User-Agent", ua)
		rr := httptest.NewRecorder()
		app.Handler().ServeHTTP(rr, req)
		return rr.Body.String()
	}
	desktop := render("Mozilla/5.0 (X11; Linux x86_64)")
	mobile := render("Mozilla/5.0 (iPhone; CPU iPhone OS) Mobile/15E148")

	fmt.Println("== desktop rendition (b2c rule set) ==")
	fmt.Println(desktop)
	fmt.Println("\n== mobile rendition (mobile rule set) ==")
	fmt.Println(mobile)

	if !strings.Contains(desktop, "unit-box") || !strings.Contains(mobile, "m-unit") {
		log.Fatal("device adaptation failed")
	}
	fmt.Println("\nSame skeleton, two rule sets, two presentations: OK")
}
