// Command pluginunit demonstrates the plug-in unit mechanism of
// Section 7: "new components, which can be easily plugged into the
// design and runtime environment, by providing their graphical icon,
// their unit service and rendition tags". Here a "weather" content unit
// is declared in the design environment, given a runtime unit service
// (simulating an external Web-service call, the paper's own use case for
// plug-ins) and a rendition tag, and placed in a page next to ordinary
// WebML units.
//
//	go run ./examples/pluginunit
//	go run ./examples/pluginunit -serve :8080
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"webmlgo"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
	"webmlgo/internal/rdb"
	"webmlgo/internal/render"
)

// weatherService is the plug-in's unit service: the business component
// behind the custom tag. A production plug-in would call a Web service;
// this one simulates the payload deterministically per city.
func weatherService(_ context.Context, _ *rdb.DB, d *descriptor.Unit, _ map[string]mvc.Value) (*mvc.UnitBean, error) {
	city, _ := d.Prop("city")
	forecast := "sunny, 21C"
	if strings.Contains(strings.ToLower(city), "milano") {
		forecast = "foggy, 12C"
	}
	return &mvc.UnitBean{
		UnitID: d.ID, Kind: d.Kind,
		Props: map[string]string{"city": city, "forecast": forecast},
	}, nil
}

// weatherTag is the plug-in's rendition tag in the View: it appends its
// markup to the page's buffer.
func weatherTag(_ *render.Context, w *bytes.Buffer, bean *mvc.UnitBean) {
	fmt.Fprintf(w, `<div class="webml-unit weather"><b>%s</b>: %s</div>`,
		bean.Props["city"], bean.Props["forecast"])
}

func main() {
	serve := flag.String("serve", "", "listen address (empty: render once and exit)")
	flag.Parse()

	// 1. Declare the plug-in kind in the design environment.
	if err := webmlgo.RegisterPlugin(webmlgo.PluginSpec{
		Kind:          "weather",
		Description:   "forecast for a configured city",
		RequiredProps: []string{"city"},
	}); err != nil {
		log.Fatal(err)
	}

	// 2. Use it in a model next to core units.
	schema := &webmlgo.Schema{
		Entities: []*webmlgo.Entity{
			{Name: "Store", Attributes: []webmlgo.Attribute{
				{Name: "Name", Type: webmlgo.String, Required: true},
				{Name: "City", Type: webmlgo.String},
			}},
		},
	}
	b := webmlgo.NewBuilder("stores", schema)
	sv := b.SiteView("public", "Store Locator")
	home := sv.Page("home", "Our Stores")
	home.Index("storeIndex", "Store", "Name", "City")
	home.Plugin("milanWeather", "weather", map[string]string{"city": "Milano"})
	model := b.MustBuild()

	// 3. Assemble the app and attach the plug-in's runtime components.
	app, err := webmlgo.New(model, webmlgo.WithCompiledStyle(webmlgo.B2CStyle()))
	if err != nil {
		log.Fatal(err)
	}
	app.LocalBusiness().RegisterUnitService("weather", mvc.UnitServiceFunc(weatherService))
	app.Renderer.RegisterTag("weather", weatherTag)

	if _, err := app.DB.Exec(
		`INSERT INTO store (name, city) VALUES ('Centro', 'Milano'), ('Lakeside', 'Como')`); err != nil {
		log.Fatal(err)
	}

	if *serve != "" {
		log.Printf("pluginunit: listening on %s (try /page/home)", *serve)
		log.Fatal(http.ListenAndServe(*serve, app.Handler()))
	}

	req := httptest.NewRequest(http.MethodGet, "/page/home", nil)
	rr := httptest.NewRecorder()
	app.Handler().ServeHTTP(rr, req)
	fmt.Printf("GET /page/home -> %d\n\n%s\n", rr.Code, rr.Body.String())
	if !strings.Contains(rr.Body.String(), "foggy, 12C") {
		log.Fatal("plug-in unit did not render")
	}
}
