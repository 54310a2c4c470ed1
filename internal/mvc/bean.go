// Package mvc implements the MVC 2 runtime of Sections 3–4: the
// Controller servlet, page actions, the generic page service (topological
// unit ordering and parameter propagation), the generic unit services
// instantiated from XML descriptors, operation services with OK/KO flow,
// the validation service, and session state. It is the Model and
// Controller of Figure 4; the View lives in internal/render.
package mvc

import (
	"strconv"

	"webmlgo/internal/cell"
	"webmlgo/internal/rdb"
)

// Value is a scalar carried in beans and parameters.
type Value = rdb.Value

// Node is one displayed object, possibly with nested children (the
// hierarchical index of Figure 1). Values is positional: Values[i] is
// the value of the bean's Fields[i] for a top-level node, and of
// LevelFields[l][i] for a node nested l+1 levels down — the descriptor
// fixed the field list once per unit, so no row carries names. Resolve
// a name with FieldIndex once per unit, never per row. The Values of a
// sibling list are cut from one slab and, like the whole bean, read-only
// once ComputeUnit has returned: beans are shared through the bean cache.
type Node struct {
	Values   []cell.Cell
	Children []Node
}

// UnitBean is the state object produced by a unit service: "JavaBeans
// storing the result of the data retrieval queries of the page units...
// available to the View" (Section 3).
type UnitBean struct {
	UnitID string
	Kind   string
	// Fields lists the top-level field names in display order.
	Fields []string
	// LevelFields lists field names per nesting level. A generic
	// service's bean shares both lists with its descriptor's FieldNames.
	LevelFields [][]string
	// Nodes are the displayed objects.
	Nodes []Node
	// Missing marks a unit whose mandatory input was absent: it renders
	// empty.
	Missing bool

	// Scroller state.
	Total    int
	Offset   int
	PageSize int

	// Entry state: field specs plus any validation errors to redisplay.
	FormFields []FormField
	Errors     map[string]string

	// Props carries plug-in configuration to plug-in renderers.
	Props map[string]string
}

// LevelNames returns the field names of nodes nested depth levels down:
// Fields at depth 0, LevelFields[depth-1] below, nil past the last level.
func (b *UnitBean) LevelNames(depth int) []string {
	switch {
	case depth == 0:
		return b.Fields
	case depth <= len(b.LevelFields):
		return b.LevelFields[depth-1]
	}
	return nil
}

// FieldIndex returns the position of a field in the Values of the nodes
// the field list names, or -1.
func FieldIndex(fields []string, name string) int {
	for i, f := range fields {
		if f == name {
			return i
		}
	}
	return -1
}

// FormField is one entry-unit field as exposed to the View.
type FormField struct {
	Name     string
	Type     string
	Required bool
	// Value is the sticky value redisplayed after a validation failure.
	Value string
}

// OpResult reports an operation's outcome to the Controller, which
// "decides what to do next" (Section 2).
type OpResult struct {
	OK bool
	// Err describes the failure when !OK.
	Err string
	// Outputs are values produced by the operation (e.g. the OID of a
	// created object) available to OK/KO link parameters.
	Outputs map[string]Value
}

// ConvertParam turns an HTTP request parameter into a typed Value using
// the natural literal interpretation (integer, then float, then string).
func ConvertParam(s string) Value {
	if s == "" {
		return ""
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

// FormatParam renders a Value back into its request-parameter form.
func FormatParam(v Value) string { return rdb.FormatValue(v) }
