package webmlgo_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"webmlgo"
)

// Example builds a two-page application — an index of volumes linking to
// a detail page — entirely through the public API, and serves one
// request against it.
func Example() {
	schema := &webmlgo.Schema{
		Entities: []*webmlgo.Entity{
			{Name: "Volume", Attributes: []webmlgo.Attribute{
				{Name: "Title", Type: webmlgo.String, Required: true},
				{Name: "Year", Type: webmlgo.Int},
			}},
		},
	}

	b := webmlgo.NewBuilder("hello", schema)
	sv := b.SiteView("public", "Public")
	home := sv.Page("home", "Volumes")
	idx := home.Index("volIndex", "Volume", "Title")
	detail := sv.Page("detail", "Volume")
	data := detail.Data("volData", "Volume", "Title", "Year")
	data.Selector = []webmlgo.Condition{{Attr: "oid", Op: "=", Param: "id"}}
	b.Link(idx.ID, detail.Ref(), webmlgo.P("oid", "id"))

	app, err := webmlgo.New(b.MustBuild())
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := app.DB.Exec(`INSERT INTO volume (title, year) VALUES ('TODS 27', 2002)`); err != nil {
		fmt.Println(err)
		return
	}

	req := httptest.NewRequest(http.MethodGet, "/page/detail?id=1", nil)
	rr := httptest.NewRecorder()
	app.Handler().ServeHTTP(rr, req)
	fmt.Println(rr.Code)
	fmt.Println(strings.Contains(rr.Body.String(), "TODS 27"))
	// Output:
	// 200
	// true
}

// ExampleUnmarshalModel compiles an application from its XML
// specification document.
func ExampleUnmarshalModel() {
	model, err := webmlgo.UnmarshalModel([]byte(`<webml name="tiny">
  <data>
    <entity name="Note"><attribute name="Text" type="string" required="true"/></entity>
  </data>
  <siteView id="sv" name="Notes" home="home">
    <page id="home" name="Notes">
      <unit id="all" kind="index" entity="Note" display="Text"/>
    </page>
  </siteView>
</webml>`))
	if err != nil {
		fmt.Println(err)
		return
	}
	app, err := webmlgo.New(model)
	if err != nil {
		fmt.Println(err)
		return
	}
	rr := httptest.NewRecorder()
	app.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/page/home", nil))
	fmt.Println(model.Name, model.Stats().Pages, rr.Code)
	// Output: tiny 1 200
}
