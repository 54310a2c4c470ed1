package rdb

// Statement is a parsed SQL statement.
type Statement interface{ params() *int }

// stmt is embedded in every statement. n is the number of '?'
// placeholders the statement holds: the parser numbers them as it reads
// them, and its reading order is text order.
type stmt struct{ n int }

func (s *stmt) params() *int { return &s.n }

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (...).
type CreateTableStmt struct {
	stmt
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
	stmt
	Name    string
	Table   string
	Columns []string
	// Ordered selects a sorted index supporting range scans instead of
	// the default hash index.
	Ordered bool
}

// DropTableStmt is DROP TABLE [IF EXISTS] name.
type DropTableStmt struct {
	stmt
	Name     string
	IfExists bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	stmt
	// Count marks a select list that is COUNT(*) alone; Columns then holds
	// its one term, which carries only the alias.
	Count   bool
	Columns []SelectExpr
	From    TableRef
	Joins   []JoinClause
	Where   Expr
	OrderBy []OrderTerm
	Limit   Expr // nil if absent
	Offset  Expr // nil if absent
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

// JoinClause is JOIN ... ON cond.
type JoinClause struct {
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
	stmt
	Table   string
	Columns []string
	Rows    [][]Expr
}

// UpdateStmt is UPDATE t SET col = operand, ... [WHERE cond].
type UpdateStmt struct {
	stmt
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause assigns an operand to a column.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE cond].
type DeleteStmt struct {
	stmt
	Table string
	Where Expr
}

// Expr is an expression node: an operand (Literal, Param, ColRef) or a
// BinaryExpr over two of them.
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

// BinaryExpr applies Op to two operands. Ops: = <> < <= > >= LIKE, and
// AND over two conditions.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*Literal) expr()    {}
func (*Param) expr()      {}
func (*ColRef) expr()     {}
func (*BinaryExpr) expr() {}

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
	if x, ok := e.(*BinaryExpr); ok {
		return walkExpr(x.L, visit) && walkExpr(x.R, visit)
	}
	return true
}
