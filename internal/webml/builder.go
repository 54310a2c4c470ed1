package webml

import (
	"strconv"

	"webmlgo/internal/er"
)

// Builder assembles a Model with generated-ID bookkeeping and back-pointer
// wiring. It is the programmatic equivalent of WebRatio's graphical model
// editor.
type Builder struct {
	model *Model
	seq   int
	errs  []error
}

// NewBuilder starts a model over the given data schema.
func NewBuilder(name string, data *er.Schema) *Builder {
	return &Builder{model: &Model{Name: name, Data: data}}
}

func (b *Builder) nextID(prefix string) string {
	b.seq++
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(b.seq), 10))
}

// SiteViewBuilder scopes page construction to one site view.
type SiteViewBuilder struct {
	b  *Builder
	sv *SiteView
}

// PageBuilder scopes unit construction to one page.
type PageBuilder struct {
	b *Builder
	p *Page
}

// SiteView adds a site view. An empty id is auto-generated.
func (b *Builder) SiteView(id, name string) *SiteViewBuilder {
	if id == "" {
		id = b.nextID("sv")
	}
	sv := &SiteView{ID: id, Name: name}
	b.model.SiteViews = append(b.model.SiteViews, sv)
	return &SiteViewBuilder{b: b, sv: sv}
}

// Protected marks the site view as requiring authentication.
func (svb *SiteViewBuilder) Protected() *SiteViewBuilder {
	svb.sv.Protected = true
	return svb
}

// Page adds a page to the site view. The first page becomes the home page
// unless Home is called.
func (svb *SiteViewBuilder) Page(id, name string) *PageBuilder {
	if id == "" {
		id = svb.b.nextID("page")
	}
	p := &Page{ID: id, Name: name, siteView: svb.sv}
	svb.sv.Pages = append(svb.sv.Pages, p)
	if svb.sv.Home == "" {
		svb.sv.Home = p.ID
	}
	return &PageBuilder{b: svb.b, p: p}
}

// AreaPage adds a page inside a named area (creating the area on first
// use).
func (svb *SiteViewBuilder) AreaPage(areaName, id, name string) *PageBuilder {
	var area *Area
	for _, a := range svb.sv.Areas {
		if a.Name == areaName {
			area = a
			break
		}
	}
	if area == nil {
		area = &Area{ID: svb.b.nextID("area"), Name: areaName}
		svb.sv.Areas = append(svb.sv.Areas, area)
	}
	if id == "" {
		id = svb.b.nextID("page")
	}
	p := &Page{ID: id, Name: name, siteView: svb.sv, area: area}
	area.Pages = append(area.Pages, p)
	if svb.sv.Home == "" {
		svb.sv.Home = p.ID
	}
	return &PageBuilder{b: svb.b, p: p}
}

// Home sets the site view's home page.
func (svb *SiteViewBuilder) Home(pageID string) *SiteViewBuilder {
	svb.sv.Home = pageID
	return svb
}

// View returns the underlying site view.
func (svb *SiteViewBuilder) View() *SiteView { return svb.sv }

// Ref returns the page's ID for use as a link endpoint.
func (pb *PageBuilder) Ref() string { return pb.p.ID }

// Page returns the underlying page.
func (pb *PageBuilder) Page() *Page { return pb.p }

// Landmark marks the page as globally reachable.
func (pb *PageBuilder) Landmark() *PageBuilder {
	pb.p.Landmark = true
	return pb
}

// Layout assigns the page's layout category for the style rules.
func (pb *PageBuilder) Layout(category string) *PageBuilder {
	pb.p.Layout = category
	return pb
}

func (pb *PageBuilder) addUnit(u *Unit) *Unit {
	if u.ID == "" {
		u.ID = pb.b.nextID("u")
	}
	u.page = pb.p
	pb.p.Units = append(pb.p.Units, u)
	return u
}

// Data adds a data unit displaying one object of entity.
func (pb *PageBuilder) Data(id, entity string, display ...string) *Unit {
	return pb.addUnit(&Unit{ID: id, Kind: DataUnit, Entity: entity, Display: display})
}

// Index adds an index unit listing objects of entity.
func (pb *PageBuilder) Index(id, entity string, display ...string) *Unit {
	return pb.addUnit(&Unit{ID: id, Kind: IndexUnit, Entity: entity, Display: display})
}

// Multidata adds a multidata unit showing full objects of entity.
func (pb *PageBuilder) Multidata(id, entity string, display ...string) *Unit {
	return pb.addUnit(&Unit{ID: id, Kind: MultidataUnit, Entity: entity, Display: display})
}

// Multichoice adds a multi-choice index over entity.
func (pb *PageBuilder) Multichoice(id, entity string, display ...string) *Unit {
	return pb.addUnit(&Unit{ID: id, Kind: MultichoiceUnit, Entity: entity, Display: display})
}

// Scroller adds a scroller unit windowing over entity.
func (pb *PageBuilder) Scroller(id, entity string, pageSize int, display ...string) *Unit {
	return pb.addUnit(&Unit{ID: id, Kind: ScrollerUnit, Entity: entity, PageSize: pageSize, Display: display})
}

// Entry adds an entry (form) unit with the given fields.
func (pb *PageBuilder) Entry(id string, fields ...Field) *Unit {
	return pb.addUnit(&Unit{ID: id, Kind: EntryUnit, Fields: fields})
}

// Plugin adds a plug-in content unit of the given registered kind.
func (pb *PageBuilder) Plugin(id string, kind UnitKind, props map[string]string) *Unit {
	return pb.addUnit(&Unit{ID: id, Kind: kind, Props: props})
}

// Operation adds an operation unit to the model (operations live outside
// pages).
func (b *Builder) Operation(id string, kind UnitKind, entity string) *Unit {
	if id == "" {
		id = b.nextID("op")
	}
	op := &Unit{ID: id, Kind: kind, Entity: entity}
	b.model.Operations = append(b.model.Operations, op)
	return op
}

// Connect adds a connect operation over a relationship.
func (b *Builder) Connect(id, relationship string) *Unit {
	op := b.Operation(id, ConnectUnit, "")
	op.Relationship = relationship
	return op
}

// Disconnect adds a disconnect operation over a relationship.
func (b *Builder) Disconnect(id, relationship string) *Unit {
	op := b.Operation(id, DisconnectUnit, "")
	op.Relationship = relationship
	return op
}

// P is shorthand for a link parameter binding.
func P(source, target string) LinkParam { return LinkParam{Source: source, Target: target} }

// Link adds a normal (navigable) link.
func (b *Builder) Link(fromID, toID string, params ...LinkParam) *Link {
	return b.addLink(NormalLink, fromID, toID, params)
}

// Transport adds a transport (parameter-only) link.
func (b *Builder) Transport(fromID, toID string, params ...LinkParam) *Link {
	return b.addLink(TransportLink, fromID, toID, params)
}

// OK adds the operation's success link.
func (b *Builder) OK(fromID, toID string, params ...LinkParam) *Link {
	return b.addLink(OKLink, fromID, toID, params)
}

// KO adds the operation's failure link.
func (b *Builder) KO(fromID, toID string, params ...LinkParam) *Link {
	return b.addLink(KOLink, fromID, toID, params)
}

func (b *Builder) addLink(kind LinkKind, fromID, toID string, params []LinkParam) *Link {
	l := &Link{ID: b.nextID("link"), Kind: kind, From: fromID, To: toID, Params: params}
	b.model.Links = append(b.model.Links, l)
	return l
}

// Build validates and returns the model, sealed.
func (b *Builder) Build() (*Model, error) {
	if err := b.model.Validate(); err != nil {
		return nil, err
	}
	return b.model, nil
}

// MustBuild is Build but panics on error, for tests and examples with
// statically known-good models.
func (b *Builder) MustBuild() *Model {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}
