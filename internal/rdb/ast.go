package rdb

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (...).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
	ForeignKeys []ForeignKeyDef
}

// ColumnDef is a column declaration inside CREATE TABLE.
type ColumnDef struct {
	Name          string
	Type          ColType
	PrimaryKey    bool
	AutoIncrement bool
	NotNull       bool
	Unique        bool
}

// ForeignKeyDef is FOREIGN KEY (col) REFERENCES table(col).
type ForeignKeyDef struct {
	Column    string
	RefTable  string
	RefColumn string
}

// CreateIndexStmt is CREATE [ORDERED] INDEX name ON table(col).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	// Ordered selects a sorted index supporting range scans instead of
	// the default hash index.
	Ordered bool
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Columns  []SelectExpr // empty means "*"
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderTerm
	Limit    Expr // nil if absent
	Offset   Expr // nil if absent
}

// SelectExpr is one projected column, optionally aliased. Star marks "*"
// or "alias.*".
type SelectExpr struct {
	Expr  Expr
	Alias string
	Star  string // "" no star; "*" all; otherwise a table alias
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

func (t TableRef) name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinClause is INNER or LEFT JOIN ... ON expr.
type JoinClause struct {
	Left  bool // LEFT [OUTER] JOIN if true; INNER otherwise
	Table TableRef
	On    Expr
}

// OrderTerm is one ORDER BY key.
type OrderTerm struct {
	Expr Expr
	Desc bool
}

// InsertStmt is INSERT INTO t (cols) VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause assigns an expression to a column.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}

// Expr is an expression node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Val Value }

// Param is a '?' placeholder, resolved positionally at execution time.
type Param struct{ Index int }

// ColRef is a possibly-qualified column reference.
type ColRef struct {
	Table  string // alias or table name; "" if unqualified
	Column string
}

// BinaryExpr applies Op to two operands. Ops: = <> < <= > >= + - * /
// AND OR LIKE.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies Op ("NOT" or "-") to one operand.
type UnaryExpr struct {
	Op string
	X  Expr
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X   Expr
	Not bool
}

// InExpr is "x [NOT] IN (e1, e2, ...)".
type InExpr struct {
	X    Expr
	Not  bool
	List []Expr
}

// FuncExpr is an aggregate or scalar function call. Star marks COUNT(*).
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
	Star bool
}

func (*Literal) expr()    {}
func (*Param) expr()      {}
func (*ColRef) expr()     {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*IsNullExpr) expr() {}
func (*InExpr) expr()     {}
func (*FuncExpr) expr()   {}

var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// walkExpr calls visit on e and then on every sub-expression, depth
// first and left to right. It stops early, returning false, as soon as
// visit does.
func walkExpr(e Expr, visit func(Expr) bool) bool {
	if e == nil {
		return true
	}
	if !visit(e) {
		return false
	}
	var kids []Expr
	switch x := e.(type) {
	case *BinaryExpr:
		return walkExpr(x.L, visit) && walkExpr(x.R, visit)
	case *UnaryExpr:
		return walkExpr(x.X, visit)
	case *IsNullExpr:
		return walkExpr(x.X, visit)
	case *InExpr:
		if !walkExpr(x.X, visit) {
			return false
		}
		kids = x.List
	case *FuncExpr:
		kids = x.Args
	}
	for _, k := range kids {
		if !walkExpr(k, visit) {
			return false
		}
	}
	return true
}

// hasAggregate reports whether the expression tree contains an aggregate
// function call.
func hasAggregate(e Expr) bool {
	return !walkExpr(e, func(x Expr) bool {
		f, ok := x.(*FuncExpr)
		return !ok || !aggregateFuncs[f.Name]
	})
}
