// Package workload synthesizes applications with the shape of the
// Acer-Euro case study (Section 8): a corporate product-content
// application with many site views (country/customer/management
// hypertexts), hundreds of pages, and thousands of units over a shared
// product database. The default spec reproduces the paper's reported
// size exactly: 22 site views, 556 pages, 3068 units (content units plus
// operations), and over 3000 SQL queries.
package workload

import (
	"fmt"
	"math/rand"

	"webmlgo/internal/er"
	"webmlgo/internal/webml"
)

// Spec sizes a synthetic application.
type Spec struct {
	SiteViews int
	Pages     int
	Units     int // content units + operations
	// Seed drives deterministic generation.
	Seed int64
}

// AcerEuro returns the paper's application size: "22 site views, 556
// page templates, and 3068 units, for a total of over 3000 SQL queries".
func AcerEuro() Spec {
	return Spec{SiteViews: 22, Pages: 556, Units: 3068, Seed: 2003}
}

// Schema returns the Acer-Euro-style product-content data model.
func Schema() *er.Schema {
	return &er.Schema{
		Entities: []*er.Entity{
			{Name: "Product", Attributes: []er.Attribute{
				{Name: "Name", Type: er.String, Required: true},
				{Name: "Code", Type: er.String, Unique: true},
				{Name: "Price", Type: er.Float},
				{Name: "Description", Type: er.String},
			}},
			{Name: "Family", Attributes: []er.Attribute{
				{Name: "Name", Type: er.String, Required: true},
			}},
			{Name: "News", Attributes: []er.Attribute{
				{Name: "Title", Type: er.String, Required: true},
				{Name: "Body", Type: er.String},
			}},
			{Name: "Event", Attributes: []er.Attribute{
				{Name: "Title", Type: er.String, Required: true},
				{Name: "Location", Type: er.String},
			}},
			{Name: "Country", Attributes: []er.Attribute{
				{Name: "Name", Type: er.String, Required: true},
				{Name: "Code", Type: er.String, Unique: true},
			}},
			{Name: "Dealer", Attributes: []er.Attribute{
				{Name: "Name", Type: er.String, Required: true},
				{Name: "City", Type: er.String},
			}},
			{Name: "Document", Attributes: []er.Attribute{
				{Name: "Title", Type: er.String, Required: true},
				{Name: "Url", Type: er.String},
			}},
			{Name: "PriceList", Attributes: []er.Attribute{
				{Name: "Name", Type: er.String, Required: true},
			}},
		},
		Relationships: []*er.Relationship{
			{Name: "FamilyToProduct", From: "Family", To: "Product",
				FromRole: "FamilyToProduct", ToRole: "ProductToFamily",
				FromCard: er.Many, ToCard: er.One},
			{Name: "CountryToNews", From: "Country", To: "News",
				FromRole: "CountryToNews", ToRole: "NewsToCountry",
				FromCard: er.Many, ToCard: er.One},
			{Name: "CountryToEvent", From: "Country", To: "Event",
				FromRole: "CountryToEvent", ToRole: "EventToCountry",
				FromCard: er.Many, ToCard: er.One},
			{Name: "CountryToDealer", From: "Country", To: "Dealer",
				FromRole: "CountryToDealer", ToRole: "DealerToCountry",
				FromCard: er.Many, ToCard: er.One},
			{Name: "ProductToDocument", From: "Product", To: "Document",
				FromRole: "ProductToDocument", ToRole: "DocumentToProduct",
				FromCard: er.Many, ToCard: er.One},
			{Name: "PriceListProduct", From: "PriceList", To: "Product",
				FromRole: "PriceListToProduct", ToRole: "ProductToPriceList",
				FromCard: er.Many, ToCard: er.Many},
		},
	}
}

// browseEntities are the list-page subjects, cycled across pages.
var browseEntities = []struct {
	entity string
	rel    string // detail page's relationship-scoped index
	child  string // entity listed by that index
}{
	{"Product", "ProductToDocument", "Document"},
	{"News", "", ""},
	{"Event", "", ""},
	{"Country", "CountryToDealer", "Dealer"},
	{"Family", "FamilyToProduct", "Product"},
	{"PriceList", "PriceListProduct", "Product"},
}

// Generate builds a valid WebML model with exactly spec.Pages pages and
// spec.Units units (content + operations) across spec.SiteViews site
// views.
func Generate(spec Spec) (*webml.Model, error) {
	if spec.SiteViews <= 0 || spec.Pages < spec.SiteViews {
		return nil, fmt.Errorf("workload: bad spec %+v", spec)
	}
	b := webml.NewBuilder("acer-euro", Schema())
	rng := rand.New(rand.NewSource(spec.Seed))

	pagesLeft := spec.Pages
	unitCount := 0
	var padUnits []*webml.Unit // removable filler units, newest last
	var views []*webml.SiteView
	builders := map[*webml.Page]*webml.PageBuilder{}

	// Distribute pages across site views.
	perView := spec.Pages / spec.SiteViews
	extra := spec.Pages % spec.SiteViews
	viewID := 0
	for sv := 0; sv < spec.SiteViews; sv++ {
		n := perView
		if sv < extra {
			n = perView + 1
		}
		viewID++
		name := fmt.Sprintf("sv%02d", viewID)
		kind := []string{"B2C", "B2B", "CM"}[sv%3]
		svb := b.SiteView(name, fmt.Sprintf("%s site view %d", kind, viewID))
		if kind == "CM" {
			svb.Protected()
		}
		buildSiteView(b, svb, name, n, rng, &unitCount, &padUnits, builders)
		views = append(views, svb.View())
		pagesLeft -= n
	}
	if pagesLeft != 0 {
		return nil, fmt.Errorf("workload: page distribution bug: %d left", pagesLeft)
	}

	// Hit the exact unit target: trim removable pads, or add more.
	for unitCount > spec.Units && len(padUnits) > 0 {
		u := padUnits[len(padUnits)-1]
		padUnits = padUnits[:len(padUnits)-1]
		p := u.Page()
		if p == nil || len(p.Units) <= 1 {
			continue
		}
		for i, pu := range p.Units {
			if pu == u {
				p.Units = append(p.Units[:i], p.Units[i+1:]...)
				unitCount--
				break
			}
		}
	}
	if unitCount < spec.Units {
		// Append pads round-robin to the pages, in model order.
		var pages []*webml.PageBuilder
		for _, sv := range views {
			for _, p := range sv.AllPages() {
				pages = append(pages, builders[p])
			}
		}
		for i := 0; unitCount < spec.Units; i++ {
			ent := browseEntities[i%len(browseEntities)].entity
			pages[i%len(pages)].Scroller(fmt.Sprintf("pad_%d", unitCount), ent, 10, displayFor(ent)...)
			unitCount++
		}
	}
	model, err := b.Build()
	if err != nil {
		return nil, err
	}
	st := model.Stats()
	if got := st.Units + st.Operations; got != spec.Units {
		return nil, fmt.Errorf("workload: unit target missed: %d != %d", got, spec.Units)
	}
	if st.Pages != spec.Pages || st.SiteViews != spec.SiteViews {
		return nil, fmt.Errorf("workload: shape missed: %+v", st)
	}
	return model, nil
}

func displayFor(entity string) []string {
	switch entity {
	case "Product":
		return []string{"Name", "Price"}
	case "Country":
		return []string{"Name", "Code"}
	case "News", "Event", "Document":
		return []string{"Title"}
	default:
		return []string{"Name"}
	}
}

// buildSiteView emits n pages in repeating clusters of three patterns:
// browse (index+scroller+entry+pad), detail (data+rel index+pad), manage
// (entry+multichoice+index plus five operations). Each page's builder is
// recorded in builders.
func buildSiteView(b *webml.Builder, svb *webml.SiteViewBuilder, svName string, n int, rng *rand.Rand, unitCount *int, padUnits *[]*webml.Unit, builders map[*webml.Page]*webml.PageBuilder) {
	var lastDetail string
	var sub struct {
		entity string
		rel    string
		child  string
	}
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			// One subject entity per cluster of three pages.
			sub = browseEntities[(i/3+rng.Intn(2))%len(browseEntities)]
		}
		pageID := fmt.Sprintf("%s_p%03d", svName, i)
		switch i % 3 {
		case 0: // browse page
			pb := svb.AreaPage(sub.entity, pageID, sub.entity+" browse").Layout("one-column")
			builders[pb.Page()] = pb
			idx := pb.Index(pageID+"_idx", sub.entity, displayFor(sub.entity)...)
			scr := pb.Scroller(pageID+"_scr", sub.entity, 10, displayFor(sub.entity)...)
			scr.Selector = []webml.Condition{{Attr: displayFor(sub.entity)[0], Op: "LIKE", Param: "kw"}}
			pb.Entry(pageID+"_search", webml.Field{Name: "kw", Type: er.String, Required: true})
			pad := pb.Scroller(pageID+"_pad", sub.entity, 10, displayFor(sub.entity)...)
			*padUnits = append(*padUnits, pad)
			*unitCount += 4
			// The browse index links to the next page (the detail), built
			// in the next iteration; remember to wire it there.
			lastDetail = idx.ID
		case 1: // detail page
			pb := svb.AreaPage(sub.entity, pageID, sub.entity+" detail").Layout("two-column")
			builders[pb.Page()] = pb
			data := pb.Data(pageID+"_data", sub.entity, displayFor(sub.entity)...)
			data.Selector = []webml.Condition{{Attr: "oid", Op: "=", Param: "id"}}
			data.Cache = &webml.CacheSpec{Enabled: true}
			*unitCount++
			if sub.rel != "" {
				rel := pb.Index(pageID+"_rel", sub.child, displayFor(sub.child)...)
				rel.Relationship = sub.rel
				rel.Cache = &webml.CacheSpec{Enabled: true}
				b.Transport(data.ID, rel.ID, webml.P("oid", "parent"))
				*unitCount++
			}
			pad := pb.Multidata(pageID+"_pad", sub.entity, displayFor(sub.entity)...)
			*padUnits = append(*padUnits, pad)
			*unitCount++
			if lastDetail != "" {
				b.Link(lastDetail, pageID, webml.P("oid", "id"))
				lastDetail = ""
			}
		default: // manage page + operations
			pb := svb.AreaPage(sub.entity, pageID, sub.entity+" manage").Layout("two-column")
			builders[pb.Page()] = pb
			form := pb.Entry(pageID+"_form",
				webml.Field{Name: "name", Type: er.String, Required: true})
			mc := pb.Multichoice(pageID+"_mc", sub.entity, displayFor(sub.entity)...)
			idx := pb.Index(pageID+"_idx", sub.entity, displayFor(sub.entity)...)
			*unitCount += 3

			create := b.Operation(pageID+"_create", webml.CreateUnit, sub.entity)
			create.Set = map[string]string{displayFor(sub.entity)[0]: "name"}
			b.Link(form.ID, create.ID, webml.P("name", "name"))
			b.OK(create.ID, pageID)
			b.KO(create.ID, pageID)

			modify := b.Operation(pageID+"_modify", webml.ModifyUnit, sub.entity)
			modify.Set = map[string]string{displayFor(sub.entity)[0]: "name"}
			b.Link(idx.ID, modify.ID, webml.P("oid", "oid"))
			b.OK(modify.ID, pageID)

			del := b.Operation(pageID+"_delete", webml.DeleteUnit, sub.entity)
			b.Link(idx.ID, del.ID, webml.P("oid", "oid"))
			b.OK(del.ID, pageID)

			conn := b.Connect(pageID+"_connect", "PriceListProduct")
			b.Link(mc.ID, conn.ID, webml.P("oid", "to"))
			b.OK(conn.ID, pageID)

			disc := b.Disconnect(pageID+"_disconnect", "PriceListProduct")
			b.Link(mc.ID, disc.ID, webml.P("oid", "to"))
			b.OK(disc.ID, pageID)

			*unitCount += 5
		}
	}
}
