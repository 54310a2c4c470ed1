package webml

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"webmlgo/internal/er"
)

// This file implements the XML document form of a WebML specification —
// the storage format of the paper's design environment and the model's
// only textual form. MarshalModel and UnmarshalModel round-trip a
// complete Model (data schema + site views + operations + links), so
// specifications can be versioned, diffed, and exchanged between tools.

// xmlModel is the document root.
type xmlModel struct {
	XMLName    xml.Name      `xml:"webml"`
	Name       string        `xml:"name,attr"`
	Data       xmlSchema     `xml:"data"`
	SiteViews  []xmlSiteView `xml:"siteView"`
	Operations []xmlUnit     `xml:"operations>unit"`
	Links      []xmlLink     `xml:"links>link"`
}

type xmlSchema struct {
	Entities      []xmlEntity       `xml:"entity"`
	Relationships []xmlRelationship `xml:"relationship"`
}

type xmlEntity struct {
	Name       string         `xml:"name,attr"`
	Attributes []xmlAttribute `xml:"attribute"`
}

type xmlAttribute struct {
	Name     string `xml:"name,attr"`
	Type     string `xml:"type,attr"`
	Unique   bool   `xml:"unique,attr,omitempty"`
	Required bool   `xml:"required,attr,omitempty"`
}

type xmlRelationship struct {
	Name     string `xml:"name,attr"`
	From     string `xml:"from,attr"`
	To       string `xml:"to,attr"`
	FromRole string `xml:"fromRole,attr"`
	ToRole   string `xml:"toRole,attr"`
	FromCard string `xml:"fromCard,attr"` // "1" or "N"
	ToCard   string `xml:"toCard,attr"`
}

type xmlSiteView struct {
	ID        string    `xml:"id,attr"`
	Name      string    `xml:"name,attr"`
	Home      string    `xml:"home,attr,omitempty"`
	Protected bool      `xml:"protected,attr,omitempty"`
	Pages     []xmlPage `xml:"page"`
	Areas     []xmlArea `xml:"area"`
}

type xmlArea struct {
	ID    string    `xml:"id,attr"`
	Name  string    `xml:"name,attr"`
	Pages []xmlPage `xml:"page"`
	Areas []xmlArea `xml:"area"`
}

type xmlPage struct {
	ID       string    `xml:"id,attr"`
	Name     string    `xml:"name,attr"`
	Landmark bool      `xml:"landmark,attr,omitempty"`
	Layout   string    `xml:"layout,attr,omitempty"`
	Units    []xmlUnit `xml:"unit"`
}

type xmlUnit struct {
	ID           string         `xml:"id,attr"`
	Name         string         `xml:"name,attr,omitempty"`
	Kind         string         `xml:"kind,attr"`
	Entity       string         `xml:"entity,attr,omitempty"`
	Relationship string         `xml:"relationship,attr,omitempty"`
	PageSize     int            `xml:"pageSize,attr,omitempty"`
	Display      string         `xml:"display,attr,omitempty"` // comma-joined
	Selector     []xmlCondition `xml:"selector"`
	Order        []xmlOrderKey  `xml:"order"`
	Fields       []xmlField     `xml:"field"`
	Sets         []xmlSet       `xml:"set"`
	Nest         *xmlNesting    `xml:"nest"`
	Cache        *xmlCache      `xml:"cache"`
	Props        []xmlProp      `xml:"prop"`
}

type xmlCondition struct {
	Attr  string `xml:"attr,attr"`
	Op    string `xml:"op,attr"`
	Param string `xml:"param,attr,omitempty"`
	// Value is a literal with an explicit type tag so round trips are
	// lossless: "int:5", "float:1.5", "str:x", "bool:true", "time:RFC3339".
	Value string `xml:"value,attr,omitempty"`
}

type xmlOrderKey struct {
	Attr string `xml:"attr,attr"`
	Desc bool   `xml:"desc,attr,omitempty"`
}

type xmlField struct {
	Name     string `xml:"name,attr"`
	Type     string `xml:"type,attr"`
	Required bool   `xml:"required,attr,omitempty"`
}

type xmlSet struct {
	Attr  string `xml:"attr,attr"`
	Param string `xml:"param,attr"`
}

type xmlNesting struct {
	Relationship string        `xml:"relationship,attr"`
	Display      string        `xml:"display,attr,omitempty"`
	Order        []xmlOrderKey `xml:"order"`
	Nest         *xmlNesting   `xml:"nest"`
}

type xmlCache struct {
	Enabled bool `xml:"enabled,attr"`
	TTL     int  `xml:"ttl,attr,omitempty"`
}

type xmlProp struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

type xmlLink struct {
	ID     string         `xml:"id,attr"`
	Kind   string         `xml:"kind,attr"`
	From   string         `xml:"from,attr"`
	To     string         `xml:"to,attr"`
	Label  string         `xml:"label,attr,omitempty"`
	Params []xmlLinkParam `xml:"param"`
}

type xmlLinkParam struct {
	Source string `xml:"source,attr"`
	Target string `xml:"target,attr"`
}

// MarshalModel renders a model as its XML specification document.
func MarshalModel(m *Model) ([]byte, error) {
	doc := xmlModel{Name: m.Name}
	if m.Data != nil {
		for _, e := range m.Data.Entities {
			xe := xmlEntity{Name: e.Name}
			for _, a := range e.Attributes {
				xe.Attributes = append(xe.Attributes, xmlAttribute{
					Name: a.Name, Type: attrTypeName(a.Type), Unique: a.Unique, Required: a.Required,
				})
			}
			doc.Data.Entities = append(doc.Data.Entities, xe)
		}
		for _, r := range m.Data.Relationships {
			doc.Data.Relationships = append(doc.Data.Relationships, xmlRelationship{
				Name: r.Name, From: r.From, To: r.To,
				FromRole: r.FromRole, ToRole: r.ToRole,
				FromCard: cardName(r.FromCard), ToCard: cardName(r.ToCard),
			})
		}
	}
	for _, sv := range m.SiteViews {
		xsv := xmlSiteView{ID: sv.ID, Name: sv.Name, Home: sv.Home, Protected: sv.Protected}
		for _, p := range sv.Pages {
			xsv.Pages = append(xsv.Pages, marshalPage(p))
		}
		for _, a := range sv.Areas {
			xsv.Areas = append(xsv.Areas, marshalArea(a))
		}
		doc.SiteViews = append(doc.SiteViews, xsv)
	}
	for _, op := range m.Operations {
		doc.Operations = append(doc.Operations, marshalUnit(op))
	}
	for _, l := range m.Links {
		xl := xmlLink{ID: l.ID, Kind: l.Kind.String(), From: l.From, To: l.To, Label: l.Label}
		for _, p := range l.Params {
			xl.Params = append(xl.Params, xmlLinkParam{Source: p.Source, Target: p.Target})
		}
		doc.Links = append(doc.Links, xl)
	}
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("webml: marshal: %w", err)
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}

func marshalArea(a *Area) xmlArea {
	xa := xmlArea{ID: a.ID, Name: a.Name}
	for _, p := range a.Pages {
		xa.Pages = append(xa.Pages, marshalPage(p))
	}
	for _, sub := range a.Areas {
		xa.Areas = append(xa.Areas, marshalArea(sub))
	}
	return xa
}

func marshalPage(p *Page) xmlPage {
	xp := xmlPage{ID: p.ID, Name: p.Name, Landmark: p.Landmark, Layout: p.Layout}
	for _, u := range p.Units {
		xp.Units = append(xp.Units, marshalUnit(u))
	}
	return xp
}

func marshalUnit(u *Unit) xmlUnit {
	xu := xmlUnit{
		ID: u.ID, Name: u.Name, Kind: string(u.Kind),
		Entity: u.Entity, Relationship: u.Relationship,
		PageSize: u.PageSize, Display: strings.Join(u.Display, ","),
	}
	for _, c := range u.Selector {
		xu.Selector = append(xu.Selector, xmlCondition{
			Attr: c.Attr, Op: c.Op, Param: c.Param, Value: encodeLiteral(c.Value),
		})
	}
	for _, o := range u.Order {
		xu.Order = append(xu.Order, xmlOrderKey{Attr: o.Attr, Desc: o.Desc})
	}
	for _, f := range u.Fields {
		xu.Fields = append(xu.Fields, xmlField{Name: f.Name, Type: attrTypeName(f.Type), Required: f.Required})
	}
	for _, attr := range sortedKeys(u.Set) {
		xu.Sets = append(xu.Sets, xmlSet{Attr: attr, Param: u.Set[attr]})
	}
	xu.Nest = marshalNesting(u.Nest)
	if u.Cache != nil {
		xu.Cache = &xmlCache{Enabled: u.Cache.Enabled, TTL: u.Cache.TTLSeconds}
	}
	for _, k := range sortedKeys(u.Props) {
		xu.Props = append(xu.Props, xmlProp{Name: k, Value: u.Props[k]})
	}
	return xu
}

func marshalNesting(n *Nesting) *xmlNesting {
	if n == nil {
		return nil
	}
	xn := &xmlNesting{Relationship: n.Relationship, Display: strings.Join(n.Display, ",")}
	for _, o := range n.Order {
		xn.Order = append(xn.Order, xmlOrderKey{Attr: o.Attr, Desc: o.Desc})
	}
	xn.Nest = marshalNesting(n.Nest)
	return xn
}

// UnmarshalModel parses an XML specification document and validates it.
func UnmarshalModel(data []byte) (*Model, error) {
	var doc xmlModel
	if err := xml.Unmarshal(data, &doc); err != nil {
		if errors.Is(err, io.EOF) {
			err = errors.New("no <webml> element")
		}
		return nil, fmt.Errorf("webml: unmarshal: %w", err)
	}
	m := &Model{Name: doc.Name, Data: &er.Schema{}}
	for _, xe := range doc.Data.Entities {
		e := &er.Entity{Name: xe.Name}
		for _, xa := range xe.Attributes {
			t, err := parseAttrType(xa.Type)
			if err != nil {
				return nil, fmt.Errorf("webml: entity %s: %w", xe.Name, err)
			}
			e.Attributes = append(e.Attributes, er.Attribute{
				Name: xa.Name, Type: t, Unique: xa.Unique, Required: xa.Required,
			})
		}
		m.Data.Entities = append(m.Data.Entities, e)
	}
	for _, xr := range doc.Data.Relationships {
		fc, err := parseCard(xr.FromCard)
		if err != nil {
			return nil, fmt.Errorf("webml: relationship %s: %w", xr.Name, err)
		}
		tc, err := parseCard(xr.ToCard)
		if err != nil {
			return nil, fmt.Errorf("webml: relationship %s: %w", xr.Name, err)
		}
		m.Data.Relationships = append(m.Data.Relationships, &er.Relationship{
			Name: xr.Name, From: xr.From, To: xr.To,
			FromRole: xr.FromRole, ToRole: xr.ToRole,
			FromCard: fc, ToCard: tc,
		})
	}
	for _, xsv := range doc.SiteViews {
		sv := &SiteView{ID: xsv.ID, Name: xsv.Name, Home: xsv.Home, Protected: xsv.Protected}
		for _, xp := range xsv.Pages {
			p, err := unmarshalPage(xp)
			if err != nil {
				return nil, err
			}
			sv.Pages = append(sv.Pages, p)
		}
		for _, xa := range xsv.Areas {
			a, err := unmarshalArea(xa)
			if err != nil {
				return nil, err
			}
			sv.Areas = append(sv.Areas, a)
		}
		m.SiteViews = append(m.SiteViews, sv)
	}
	for _, xu := range doc.Operations {
		u, err := unmarshalUnit(xu)
		if err != nil {
			return nil, err
		}
		m.Operations = append(m.Operations, u)
	}
	for _, xl := range doc.Links {
		kind, err := parseLinkKind(xl.Kind)
		if err != nil {
			return nil, fmt.Errorf("webml: link %s: %w", xl.ID, err)
		}
		l := &Link{ID: xl.ID, Kind: kind, From: xl.From, To: xl.To, Label: xl.Label}
		for _, p := range xl.Params {
			l.Params = append(l.Params, LinkParam{Source: p.Source, Target: p.Target})
		}
		m.Links = append(m.Links, l)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func unmarshalArea(xa xmlArea) (*Area, error) {
	a := &Area{ID: xa.ID, Name: xa.Name}
	for _, xp := range xa.Pages {
		p, err := unmarshalPage(xp)
		if err != nil {
			return nil, err
		}
		a.Pages = append(a.Pages, p)
	}
	for _, sub := range xa.Areas {
		s, err := unmarshalArea(sub)
		if err != nil {
			return nil, err
		}
		a.Areas = append(a.Areas, s)
	}
	return a, nil
}

func unmarshalPage(xp xmlPage) (*Page, error) {
	p := &Page{ID: xp.ID, Name: xp.Name, Landmark: xp.Landmark, Layout: xp.Layout}
	for _, xu := range xp.Units {
		u, err := unmarshalUnit(xu)
		if err != nil {
			return nil, err
		}
		p.Units = append(p.Units, u)
	}
	return p, nil
}

func unmarshalUnit(xu xmlUnit) (*Unit, error) {
	u := &Unit{
		ID: xu.ID, Name: xu.Name, Kind: UnitKind(xu.Kind),
		Entity: xu.Entity, Relationship: xu.Relationship,
		PageSize: xu.PageSize, Display: splitList(xu.Display),
	}
	for _, xc := range xu.Selector {
		v, err := decodeLiteral(xc.Value)
		if err != nil {
			return nil, fmt.Errorf("webml: unit %s selector: %w", xu.ID, err)
		}
		u.Selector = append(u.Selector, Condition{Attr: xc.Attr, Op: xc.Op, Param: xc.Param, Value: v})
	}
	for _, xo := range xu.Order {
		u.Order = append(u.Order, OrderKey{Attr: xo.Attr, Desc: xo.Desc})
	}
	for _, xf := range xu.Fields {
		t, err := parseAttrType(xf.Type)
		if err != nil {
			return nil, fmt.Errorf("webml: unit %s field %s: %w", xu.ID, xf.Name, err)
		}
		u.Fields = append(u.Fields, Field{Name: xf.Name, Type: t, Required: xf.Required})
	}
	if len(xu.Sets) > 0 {
		u.Set = make(map[string]string, len(xu.Sets))
		for _, s := range xu.Sets {
			u.Set[s.Attr] = s.Param
		}
	}
	u.Nest = unmarshalNesting(xu.Nest)
	if xu.Cache != nil {
		u.Cache = &CacheSpec{Enabled: xu.Cache.Enabled, TTLSeconds: xu.Cache.TTL}
	}
	if len(xu.Props) > 0 {
		u.Props = make(map[string]string, len(xu.Props))
		for _, p := range xu.Props {
			u.Props[p.Name] = p.Value
		}
	}
	return u, nil
}

func unmarshalNesting(xn *xmlNesting) *Nesting {
	if xn == nil {
		return nil
	}
	n := &Nesting{Relationship: xn.Relationship, Display: splitList(xn.Display)}
	for _, xo := range xn.Order {
		n.Order = append(n.Order, OrderKey{Attr: xo.Attr, Desc: xo.Desc})
	}
	n.Nest = unmarshalNesting(xn.Nest)
	return n
}

// --- scalar codecs ---

func attrTypeName(t er.AttrType) string {
	switch t {
	case er.String:
		return "string"
	case er.Int:
		return "int"
	case er.Float:
		return "float"
	case er.Bool:
		return "bool"
	case er.Time:
		return "time"
	}
	return "string"
}

func parseAttrType(s string) (er.AttrType, error) {
	switch strings.ToLower(s) {
	case "string", "text", "":
		return er.String, nil
	case "int", "integer":
		return er.Int, nil
	case "float", "real":
		return er.Float, nil
	case "bool", "boolean":
		return er.Bool, nil
	case "time", "timestamp", "date":
		return er.Time, nil
	}
	return 0, fmt.Errorf("unknown attribute type %q", s)
}

func cardName(c er.Cardinality) string {
	if c == er.Many {
		return "N"
	}
	return "1"
}

func parseCard(s string) (er.Cardinality, error) {
	switch s {
	case "1":
		return er.One, nil
	case "N", "n", "*":
		return er.Many, nil
	}
	return 0, fmt.Errorf("unknown cardinality %q", s)
}

func parseLinkKind(s string) (LinkKind, error) {
	switch s {
	case "normal":
		return NormalLink, nil
	case "transport":
		return TransportLink, nil
	case "automatic":
		return AutomaticLink, nil
	case "ok":
		return OKLink, nil
	case "ko":
		return KOLink, nil
	}
	return 0, fmt.Errorf("unknown link kind %q", s)
}

func encodeLiteral(v interface{}) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return "str:" + x
	case int:
		return fmt.Sprintf("int:%d", x)
	case int64:
		return fmt.Sprintf("int:%d", x)
	case float64:
		return fmt.Sprintf("float:%g", x)
	case bool:
		return fmt.Sprintf("bool:%t", x)
	case time.Time:
		return "time:" + x.Format(time.RFC3339)
	}
	return "str:" + fmt.Sprintf("%v", v)
}

func decodeLiteral(s string) (interface{}, error) {
	if s == "" {
		return nil, nil
	}
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return nil, fmt.Errorf("bad literal %q", s)
	}
	tag, rest := s[:i], s[i+1:]
	switch tag {
	case "str":
		return rest, nil
	case "int":
		var n int64
		if _, err := fmt.Sscanf(rest, "%d", &n); err != nil {
			return nil, fmt.Errorf("bad int literal %q", s)
		}
		return n, nil
	case "float":
		var f float64
		if _, err := fmt.Sscanf(rest, "%g", &f); err != nil {
			return nil, fmt.Errorf("bad float literal %q", s)
		}
		return f, nil
	case "bool":
		switch rest {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
		return nil, fmt.Errorf("bad bool literal %q", s)
	case "time":
		t, err := time.Parse(time.RFC3339, rest)
		if err != nil {
			return nil, fmt.Errorf("bad time literal %q", s)
		}
		return t, nil
	}
	return nil, fmt.Errorf("unknown literal tag %q", tag)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// insertion sort (tiny maps)
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
