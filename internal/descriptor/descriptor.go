// Package descriptor implements the XML descriptors of Figure 5: the
// unit-specific information (SQL query, I/O parameters, output fields)
// that instantiates a generic service into a concrete, unit-specific
// service at runtime. Descriptors are the paper's central extension
// point: "developers can optimize the data extraction query working on
// the XML descriptor, and deploy the optimized version without
// interrupting the service".
package descriptor

import (
	"encoding/xml"
	"fmt"
	"strings"
	"sync/atomic"
)

// ParamDef is one input parameter of a unit. The order of a descriptor's
// Inputs matches the order of the '?' placeholders in its Query.
type ParamDef struct {
	// Name is the parameter name link parameters and HTTP requests bind.
	Name string `xml:"name,attr"`
	// Wildcard wraps the bound value in '%...%' before query execution
	// (generated for LIKE selector conditions, i.e. keyword search).
	Wildcard bool `xml:"wildcard,attr,omitempty"`
}

// FieldDef is one output field of the unit bean and the result-set column
// it is filled from.
type FieldDef struct {
	// Name is the bean field name (the WebML attribute name).
	Name string `xml:"name,attr"`
	// Column is the SQL result column.
	Column string `xml:"column,attr"`
}

// FieldSpec describes one entry-unit form field for the validation
// service.
type FieldSpec struct {
	Name     string `xml:"name,attr"`
	Type     string `xml:"type,attr"` // TEXT, INTEGER, REAL, BOOLEAN, TIMESTAMP
	Required bool   `xml:"required,attr,omitempty"`
}

// CachePolicy is the business-tier cache policy of a unit (Section 6).
type CachePolicy struct {
	Enabled    bool `xml:"enabled,attr"`
	TTLSeconds int  `xml:"ttl,attr,omitempty"`
}

// Level is one nesting level of a hierarchical index unit. Its query
// takes the parent level's OID as its single parameter.
type Level struct {
	Entity  string     `xml:"entity,attr"`
	Query   string     `xml:"query"`
	Outputs []FieldDef `xml:"output"`
	// Dep is the dependency tag of the traversed relationship.
	Dep string `xml:"dep,attr,omitempty"`
}

// Prop is one plug-in configuration property.
type Prop struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Unit is the XML descriptor of one WebML unit (content or operation).
type Unit struct {
	XMLName xml.Name `xml:"unit"`
	ID      string   `xml:"id,attr"`
	Kind    string   `xml:"kind,attr"`
	Entity  string   `xml:"entity,attr,omitempty"`
	// Optimized marks the descriptor as hand-tuned: the code generator
	// must not overwrite it on regeneration (Section 6, Optimisation).
	Optimized bool `xml:"optimized,attr,omitempty"`
	// Service optionally names a user-supplied business component that
	// completely overrides the generic service for this unit.
	Service string `xml:"service,attr,omitempty"`

	Query string `xml:"query,omitempty"`
	// CountQuery is the scroller unit's total-count query.
	CountQuery string `xml:"countQuery,omitempty"`
	// PageSize is the scroller window size.
	PageSize int `xml:"pageSize,attr,omitempty"`

	Inputs  []ParamDef  `xml:"input"`
	Outputs []FieldDef  `xml:"output"`
	Levels  []Level     `xml:"level"`
	Fields  []FieldSpec `xml:"field"`
	Props   []Prop      `xml:"prop"`

	// Reads and Writes are the model-derived dependency tags used by the
	// cache (entities the query reads, entities/relationships an
	// operation writes).
	Reads  []string `xml:"reads>dep,omitempty"`
	Writes []string `xml:"writes>dep,omitempty"`

	Cache *CachePolicy `xml:"cache,omitempty"`

	// names holds the *fieldNames FieldNames computes on first use.
	names atomic.Value
}

// fieldNames is the field names of a unit's beans: its outputs', then
// each level's.
type fieldNames struct {
	fields []string
	levels [][]string
}

// FieldNames returns the names of the unit's outputs and of each level's
// outputs, the field lists of every bean the unit's generic service
// builds. They are computed on the first call and shared read-only by
// every caller, so a descriptor's outputs must not change once it is
// used. An empty list is nil.
func (u *Unit) FieldNames() (fields []string, levels [][]string) {
	n, _ := u.names.Load().(*fieldNames)
	if n == nil {
		n = &fieldNames{fields: outputNames(u.Outputs)}
		if len(u.Levels) > 0 {
			n.levels = make([][]string, len(u.Levels))
			for i, l := range u.Levels {
				n.levels[i] = outputNames(l.Outputs)
			}
		}
		if !u.names.CompareAndSwap(nil, n) {
			n = u.names.Load().(*fieldNames)
		}
	}
	return n.fields, n.levels
}

// clone copies the unit, names included: FieldNames runs first, so the
// copy reads a names slot no other goroutine can still be filling.
func (u *Unit) clone() *Unit {
	u.FieldNames()
	c := *u
	return &c
}

func outputNames(fs []FieldDef) []string {
	if len(fs) == 0 {
		return nil
	}
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// Prop returns a plug-in property value.
func (u *Unit) Prop(name string) (string, bool) {
	for _, p := range u.Props {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// EdgeParam maps a source-unit output to a target-unit input along an
// intra-page edge.
type EdgeParam struct {
	Source string `xml:"source,attr"`
	Target string `xml:"target,attr"`
}

// Edge is one intra-page parameter-propagation edge (a transport or
// automatic link between units of the same page).
type Edge struct {
	From   string      `xml:"from,attr"`
	To     string      `xml:"to,attr"`
	Params []EdgeParam `xml:"param"`
}

// UnitRef references a unit from a page descriptor, in display order.
type UnitRef struct {
	ID string `xml:"id,attr"`
}

// MenuItem is one landmark entry of a page's navigation menu.
type MenuItem struct {
	Action string `xml:"action,attr"`
	Label  string `xml:"label,attr"`
}

// Anchor is a navigable link rendered inside a unit: the View emits an
// anchor per displayed object, carrying the mapped parameters to the
// target action.
type Anchor struct {
	// FromUnit is the unit whose rendition carries the anchor.
	FromUnit string `xml:"from,attr"`
	// Action is the Controller action the anchor requests.
	Action string `xml:"action,attr"`
	// Label is the anchor text ("" renders the object's first field).
	Label string `xml:"label,attr,omitempty"`
	// Params map object fields to request parameters of the action.
	Params []EdgeParam `xml:"param"`
}

// Page is the XML descriptor of one page: the units it contains and the
// topology needed "for computing units in the proper order and with the
// correct input parameters" (Section 4).
type Page struct {
	XMLName  xml.Name `xml:"page"`
	ID       string   `xml:"id,attr"`
	Name     string   `xml:"name,attr,omitempty"`
	SiteView string   `xml:"siteView,attr,omitempty"`
	Layout   string   `xml:"layout,attr,omitempty"`
	Template string   `xml:"template,attr,omitempty"`
	// Protected marks pages of a protected site view: the Controller
	// requires an authenticated session before serving them.
	Protected bool      `xml:"protected,attr,omitempty"`
	Units     []UnitRef `xml:"unit"`
	Edges     []Edge    `xml:"edge"`
	Anchors   []Anchor  `xml:"anchor"`
	// Menu lists the site view's landmark pages: pages reachable from
	// everywhere in the hypertext, rendered as the navigation bar.
	Menu []MenuItem `xml:"menu"`
}

// ForwardParam maps an operation output (or pass-through input) to a
// request parameter of the OK/KO target.
type ForwardParam struct {
	Source string `xml:"source,attr"`
	Target string `xml:"target,attr"`
}

// Mapping is one action mapping in the Controller's configuration file:
// it "ties together the user's request, the page action, and the page
// view" (Section 3), and for operations it dictates the flow of control
// after execution.
type Mapping struct {
	XMLName xml.Name `xml:"mapping"`
	// Action is the request action name ("page/<id>" or "op/<id>").
	Action string `xml:"action,attr"`
	// Type is "page" or "operation".
	Type string `xml:"type,attr"`
	// Page is the page ID for page mappings.
	Page string `xml:"page,attr,omitempty"`
	// Template is the view template name for page mappings.
	Template string `xml:"template,attr,omitempty"`
	// OK / KO are the next actions for operation mappings.
	OK string `xml:"ok,attr,omitempty"`
	KO string `xml:"ko,attr,omitempty"`
	// Validate names the entry unit whose field specifications the
	// validation service applies to the operation's inputs.
	Validate string `xml:"validate,attr,omitempty"`
	// OKParams / KOParams forward values to the next action.
	OKParams []ForwardParam `xml:"okParam"`
	KOParams []ForwardParam `xml:"koParam"`
}

// Config is the Controller's configuration file. In WebRatio it "is
// automatically generated from the topology of the hypertext in the WebML
// diagram" (Section 7).
//
// A config is read-only once it is parsed or a Repository installs it:
// both index its mappings by action, and Mapping answers from that index.
type Config struct {
	XMLName  xml.Name  `xml:"controller"`
	App      string    `xml:"app,attr,omitempty"`
	Mappings []Mapping `xml:"mapping"`

	byAction map[string]int // position of each action's first mapping
}

// Mapping returns the first mapping for an action name, or nil.
func (c *Config) Mapping(action string) *Mapping {
	if i, ok := c.byAction[action]; ok {
		return &c.Mappings[i]
	}
	return nil
}

// index builds the action index once; the first of duplicate actions
// wins.
func (c *Config) index() {
	if c.byAction == nil {
		c.byAction = make(map[string]int, len(c.Mappings))
		for i := len(c.Mappings) - 1; i >= 0; i-- {
			c.byAction[c.Mappings[i].Action] = i
		}
	}
}

// Marshal renders any descriptor value as indented XML.
func Marshal(v interface{}) ([]byte, error) {
	out, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("descriptor: marshal: %w", err)
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}

// UnmarshalUnit parses a unit descriptor.
func UnmarshalUnit(data []byte) (*Unit, error) {
	var u Unit
	if err := xml.Unmarshal(data, &u); err != nil {
		return nil, fmt.Errorf("descriptor: unit: %w", err)
	}
	if u.ID == "" {
		return nil, fmt.Errorf("descriptor: unit without id")
	}
	return &u, nil
}

// UnmarshalPage parses a page descriptor.
func UnmarshalPage(data []byte) (*Page, error) {
	var p Page
	if err := xml.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("descriptor: page: %w", err)
	}
	if p.ID == "" {
		return nil, fmt.Errorf("descriptor: page without id")
	}
	return &p, nil
}

// UnmarshalConfig parses a controller configuration.
func UnmarshalConfig(data []byte) (*Config, error) {
	var c Config
	if err := xml.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("descriptor: config: %w", err)
	}
	c.index()
	return &c, nil
}

// EntityDep and RelDep build the canonical dependency tags shared by unit
// Reads, operation Writes and the cache's invalidation index.
func EntityDep(entity string) string { return "entity:" + strings.ToLower(entity) }

// RelDep builds the dependency tag of a relationship.
func RelDep(rel string) string { return "rel:" + strings.ToLower(rel) }
