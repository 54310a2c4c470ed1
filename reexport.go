package webmlgo

import (
	"webmlgo/internal/er"
	"webmlgo/internal/style"
	"webmlgo/internal/webml"
)

// This file re-exports the modelling vocabulary so applications are
// written against a single import. The aliased types are identical to
// their internal definitions.

// ER data model vocabulary.
type (
	// Schema is an Entity-Relationship data model.
	Schema = er.Schema
	// Entity is a class of published objects.
	Entity = er.Entity
	// Attribute is one typed entity property.
	Attribute = er.Attribute
	// Relationship is a binary relationship with cardinalities.
	Relationship = er.Relationship
)

// Attribute types.
const (
	String = er.String
	Int    = er.Int
	Float  = er.Float
	Bool   = er.Bool
	Time   = er.Time
)

// Cardinalities.
const (
	One  = er.One
	Many = er.Many
)

// WebML hypertext vocabulary.
type (
	// Model is a complete WebML specification.
	Model = webml.Model
	// Builder assembles models programmatically.
	Builder = webml.Builder
	// Unit is a content or operation unit.
	Unit = webml.Unit
	// Condition is one selector conjunct.
	Condition = webml.Condition
	// OrderKey sorts a unit's objects.
	OrderKey = webml.OrderKey
	// Nesting describes a hierarchical index level.
	Nesting = webml.Nesting
	// Field is an entry-unit form field.
	Field = webml.Field
	// CacheSpec tags a unit as cached in the conceptual model.
	CacheSpec = webml.CacheSpec
	// PluginSpec declares a plug-in unit kind.
	PluginSpec = webml.PluginSpec
)

// Core unit kinds.
const (
	DataUnit        = webml.DataUnit
	IndexUnit       = webml.IndexUnit
	MultidataUnit   = webml.MultidataUnit
	MultichoiceUnit = webml.MultichoiceUnit
	ScrollerUnit    = webml.ScrollerUnit
	EntryUnit       = webml.EntryUnit
	CreateUnit      = webml.CreateUnit
	DeleteUnit      = webml.DeleteUnit
	ModifyUnit      = webml.ModifyUnit
	ConnectUnit     = webml.ConnectUnit
	DisconnectUnit  = webml.DisconnectUnit
)

// NewBuilder starts a model over a data schema.
func NewBuilder(name string, data *Schema) *Builder { return webml.NewBuilder(name, data) }

// P is shorthand for a link parameter binding (source -> target).
func P(source, target string) webml.LinkParam { return webml.P(source, target) }

// RegisterPlugin declares a plug-in unit kind in the design environment.
func RegisterPlugin(spec PluginSpec) error { return webml.RegisterPlugin(spec) }

// Built-in presentation rule sets (Section 5).

// B2CStyle returns the consumer-facing rule set.
func B2CStyle() *style.RuleSet { return style.B2CRuleSet() }

// B2BStyle returns the partner-extranet rule set.
func B2BStyle() *style.RuleSet { return style.B2BRuleSet() }

// IntranetStyle returns the content-management rule set.
func IntranetStyle() *style.RuleSet { return style.IntranetRuleSet() }

// MultiDevice returns a copy of def that serves mobile user agents with
// the mobile rule set and everything else with def.
func MultiDevice(def *style.RuleSet) *style.RuleSet { return style.MultiDevice(def) }

// StyleRuleSet aliases the presentation rule-set type for option maps.
type StyleRuleSet = style.RuleSet

// MarshalModel renders a model as its XML specification document.
func MarshalModel(m *Model) ([]byte, error) { return webml.MarshalModel(m) }

// UnmarshalModel parses an XML specification document.
func UnmarshalModel(data []byte) (*Model, error) { return webml.UnmarshalModel(data) }

// Lint reports advisory design warnings for a model.
func Lint(m *Model) []string { return webml.Lint(m) }
