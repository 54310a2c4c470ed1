// Command acerstore is a multi-site-view product-content application in
// the style of the paper's Acer-Euro case study (Section 8): a public
// B2C catalogue, and a protected content-management site view whose
// operations (create/modify/delete) feed the public content — with the
// bean cache of Section 6 switched on, so content updates automatically
// invalidate the cached beans they affect.
//
//	go run ./examples/acerstore            # scripted walk-through
//	go run ./examples/acerstore -serve :8080
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
			{Name: "Product", Attributes: []webmlgo.Attribute{
				{Name: "Name", Type: webmlgo.String, Required: true},
				{Name: "Price", Type: webmlgo.Float},
				{Name: "Description", Type: webmlgo.String},
			}},
			{Name: "Family", Attributes: []webmlgo.Attribute{
				{Name: "Name", Type: webmlgo.String, Required: true},
			}},
			{Name: "News", Attributes: []webmlgo.Attribute{
				{Name: "Title", Type: webmlgo.String, Required: true},
				{Name: "Body", Type: webmlgo.String},
			}},
		},
		Relationships: []*webmlgo.Relationship{
			{Name: "FamilyToProduct", From: "Family", To: "Product",
				FromRole: "FamilyToProduct", ToRole: "ProductToFamily",
				FromCard: webmlgo.Many, ToCard: webmlgo.One},
		},
	}

	b := webmlgo.NewBuilder("acer-store", schema)

	// Public B2C site view.
	shop := b.SiteView("shop", "Product Catalogue")
	home := shop.Page("home", "Families").Layout("one-column")
	famIndex := home.Index("famIndex", "Family", "Name")
	news := home.Multidata("newsList", "News", "Title", "Body")
	news.Cache = &webmlgo.CacheSpec{Enabled: true}

	family := shop.Page("family", "Family Page").Layout("two-column")
	famData := family.Data("famData", "Family", "Name")
	famData.Selector = []webmlgo.Condition{{Attr: "oid", Op: "=", Param: "family"}}
	famData.Cache = &webmlgo.CacheSpec{Enabled: true}
	products := family.Index("famProducts", "Product", "Name", "Price")
	products.Relationship = "FamilyToProduct"
	products.Cache = &webmlgo.CacheSpec{Enabled: true}

	product := shop.Page("product", "Product Page").Layout("two-column")
	prodData := product.Data("prodData", "Product", "Name", "Price", "Description")
	prodData.Selector = []webmlgo.Condition{{Attr: "oid", Op: "=", Param: "product"}}
	prodData.Cache = &webmlgo.CacheSpec{Enabled: true, TTLSeconds: 300}

	b.Link(famIndex.ID, family.Ref(), webmlgo.P("oid", "family"))
	b.Transport(famData.ID, products.ID, webmlgo.P("oid", "parent"))
	b.Link(products.ID, product.Ref(), webmlgo.P("oid", "product"))

	// Protected content-management site view.
	cm := b.SiteView("cm", "Content Management").Protected()
	manage := cm.Page("manage", "Manage Products").Layout("two-column")
	prodIdx := manage.Index("manIndex", "Product", "Name", "Price")
	form := manage.Entry("prodForm",
		webmlgo.Field{Name: "name", Type: webmlgo.String, Required: true},
		webmlgo.Field{Name: "price", Type: webmlgo.Float},
		webmlgo.Field{Name: "family", Type: webmlgo.Int, Required: true})

	create := b.Operation("createProduct", webmlgo.CreateUnit, "Product")
	create.Set = map[string]string{"Name": "name", "Price": "price"}
	b.Link(form.ID, create.ID, webmlgo.P("name", "name"), webmlgo.P("price", "price"))
	// Chain: after creating the product, connect it to its family.
	attach := b.Connect("attachFamily", "FamilyToProduct")
	b.OK(create.ID, attach.ID, webmlgo.P("oid", "to"), webmlgo.P("family", "from"))
	b.KO(create.ID, manage.Ref())
	b.OK(attach.ID, manage.Ref())

	del := b.Operation("deleteProduct", webmlgo.DeleteUnit, "Product")
	b.Link(prodIdx.ID, del.ID, webmlgo.P("oid", "oid"))
	b.OK(del.ID, manage.Ref())

	return b.MustBuild()
}

func seed(app *webmlgo.App) error {
	stmts := []string{
		`INSERT INTO family (name) VALUES ('Notebooks'), ('Desktops')`,
		`INSERT INTO product (name, price, description, fk_familytoproduct) VALUES
			('TravelMate 100', 1999.0, 'A portable.', 1),
			('TravelMate 200', 2499.0, 'A better portable.', 1),
			('AcerPower X', 1499.0, 'A desktop.', 2)`,
		`INSERT INTO news (title, body) VALUES ('New price list', 'Effective June.')`,
	}
	for _, s := range stmts {
		if _, err := app.DB.Exec(s); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	serve := flag.String("serve", "", "listen address (empty: scripted walk-through)")
	flag.Parse()

	app, err := webmlgo.New(buildModel(),
		webmlgo.WithBeanCache(4096),
		webmlgo.WithCompiledStyle(webmlgo.B2CStyle()))
	if err != nil {
		log.Fatal(err)
	}
	if err := seed(app); err != nil {
		log.Fatal(err)
	}

	if *serve != "" {
		log.Printf("acerstore: listening on %s (try /page/home; POST /login?user=admin for /page/manage)", *serve)
		log.Fatal(http.ListenAndServe(*serve, app.Handler()))
	}

	// Scripted walk-through: browse, update through an operation chain,
	// and observe the model-driven cache invalidation.
	var cookies []*http.Cookie
	do := func(method, path string) (int, string, string) {
		req := httptest.NewRequest(method, path, nil)
		for _, c := range cookies {
			req.AddCookie(c)
		}
		rr := httptest.NewRecorder()
		app.Handler().ServeHTTP(rr, req)
		if cs := rr.Result().Cookies(); len(cs) > 0 {
			cookies = cs
		}
		return rr.Code, rr.Body.String(), rr.Header().Get("Location")
	}

	code, body, _ := do(http.MethodGet, "/page/family?family=1")
	fmt.Printf("1. GET /page/family?family=1 -> %d (Notebooks page, %d bytes)\n", code, len(body))
	do(http.MethodGet, "/page/family?family=1")
	fmt.Printf("2. repeat -> bean cache: %+v\n", app.BeanCache.Stats())

	do(http.MethodPost, "/login?user=editor")
	code, _, loc := do(http.MethodGet, "/op/createProduct?name=TravelMate+300&price=2999&family=1")
	fmt.Printf("3. create+connect chain -> %d, redirect %s\n", code, loc)

	_, body, _ = do(http.MethodGet, "/page/family?family=1")
	fresh := strings.Contains(body, "TravelMate 300")
	fmt.Printf("4. family page reflects the new product immediately: %v\n", fresh)
	fmt.Printf("5. cache after invalidation: %+v\n", app.BeanCache.Stats())
	if !fresh {
		log.Fatal("stale content served")
	}
}
