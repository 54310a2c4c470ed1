package rdb

import (
	"fmt"
	"strconv"
	"strings"
)

// SyntaxError reports a SQL parse failure with the offending statement.
type SyntaxError struct {
	SQL string
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("rdb: syntax error at %d in %q: %s", e.Pos, e.SQL, e.Msg)
}

// ParseStatement parses a single SQL statement (an optional trailing ';'
// is accepted). The grammar is the statements the stack writes:
//
//	select  := SELECT (COUNT(*) [alias] | term (, term)*) FROM table
//	           (JOIN table ON cond)* [WHERE cond]
//	           [ORDER BY operand [ASC|DESC] (, ...)*] [LIMIT operand] [OFFSET operand]
//	term    := * | name.* | operand [alias]
//	cond    := operand [(= | <> | != | < | <= | > | >= | LIKE) operand] (AND ...)*
//	operand := column | name.column | ? | [-]number | 'text' | NULL | TRUE | FALSE
//
// plus INSERT, UPDATE and DELETE over operands and conds, CREATE TABLE,
// CREATE [ORDERED] INDEX and DROP TABLE. Anything else is a *SyntaxError
// at the first token of the form it uses: the keyword, operator or
// function name the grammar has no place for.
func ParseStatement(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{sql: sql, toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	*st.params() = p.params
	return st, nil
}

type sqlParser struct {
	sql    string
	toks   []token
	pos    int
	params int // '?' read so far: the next one's index
}

func (p *sqlParser) cur() token { return p.toks[p.pos] }

func (p *sqlParser) errf(format string, args ...interface{}) error {
	return p.errAt(p.cur().pos, format, args...)
}

func (p *sqlParser) errAt(pos int, format string, args ...interface{}) error {
	return &SyntaxError{SQL: p.sql, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *sqlParser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *sqlParser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expect(k tokKind, text string) (token, error) {
	if p.at(k, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", k)
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

func (p *sqlParser) expectIdent() (string, error) {
	if p.at(tokIdent, "") {
		t := p.cur()
		p.pos++
		return t.text, nil
	}
	// Non-reserved keyword usable as identifier in some positions.
	return "", p.errf("expected identifier, found %q", p.cur().text)
}

func (p *sqlParser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tokKeyword, "DROP"):
		return p.parseDrop()
	}
	return nil, p.errf("expected statement, found %q", p.cur().text)
}

func (p *sqlParser) parseCreate() (Statement, error) {
	p.pos++ // CREATE
	if p.accept(tokKeyword, "TABLE") {
		return p.parseCreateTable()
	}
	p.accept(tokKeyword, "UNIQUE") // tolerated; indexes are not unique-enforcing
	ordered := p.accept(tokKeyword, "ORDERED")
	if p.accept(tokKeyword, "INDEX") {
		st, err := p.parseCreateIndex()
		if err != nil {
			return nil, err
		}
		st.(*CreateIndexStmt).Ordered = ordered
		return st, nil
	}
	return nil, p.errf("expected TABLE or INDEX after CREATE")
}

func (p *sqlParser) parseCreateTable() (Statement, error) {
	st := &CreateTableStmt{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		if p.accept(tokKeyword, "FOREIGN") {
			fk, err := p.parseForeignKey()
			if err != nil {
				return nil, err
			}
			st.ForeignKeys = append(st.ForeignKeys, fk)
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *sqlParser) parseColumnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.expectIdent()
	if err != nil {
		return col, err
	}
	col.Name = name
	typTok := p.cur()
	if typTok.kind != tokIdent && typTok.kind != tokKeyword {
		return col, p.errf("expected column type for %s", name)
	}
	p.pos++
	typ, ok := parseColType(typTok.text)
	if !ok {
		return col, p.errf("unknown column type %q", typTok.text)
	}
	col.Type = typ
	// Optional (n) size, ignored.
	if p.accept(tokSymbol, "(") {
		if _, err := p.expect(tokNumber, ""); err != nil {
			return col, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return col, err
		}
	}
	for {
		switch {
		case p.accept(tokKeyword, "PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return col, err
			}
			col.PrimaryKey = true
		case p.accept(tokKeyword, "AUTOINCREMENT"):
			col.AutoIncrement = true
		case p.accept(tokKeyword, "NOT"):
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		case p.accept(tokKeyword, "UNIQUE"):
			col.Unique = true
		default:
			return col, nil
		}
	}
}

func (p *sqlParser) parseForeignKey() (ForeignKeyDef, error) {
	var fk ForeignKeyDef
	if _, err := p.expect(tokKeyword, "KEY"); err != nil {
		return fk, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return fk, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return fk, err
	}
	fk.Column = col
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return fk, err
	}
	if _, err := p.expect(tokKeyword, "REFERENCES"); err != nil {
		return fk, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return fk, err
	}
	fk.RefTable = tbl
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return fk, err
	}
	ref, err := p.expectIdent()
	if err != nil {
		return fk, err
	}
	fk.RefColumn = ref
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return fk, err
	}
	return fk, nil
}

func (p *sqlParser) parseCreateIndex() (Statement, error) {
	st := &CreateIndexStmt{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = tbl
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *sqlParser) parseDrop() (Statement, error) {
	p.pos++ // DROP
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	st := &DropTableStmt{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	p.pos++ // SELECT
	st := &SelectStmt{}
	if count := p.cur(); p.accept(tokKeyword, "COUNT") {
		if !p.accept(tokSymbol, "(") || !p.accept(tokSymbol, "*") || !p.accept(tokSymbol, ")") {
			return nil, p.errAt(count.pos, "COUNT takes only *")
		}
		alias, err := p.parseAlias()
		if err != nil {
			return nil, err
		}
		if p.at(tokSymbol, ",") {
			return nil, p.errAt(count.pos, "COUNT(*) must be the whole select list")
		}
		st.Count = true
		st.Columns = []SelectExpr{{Alias: alias}}
	} else {
		for {
			se, err := p.parseSelectExpr()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, se)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	st.From = from
	for p.accept(tokKeyword, "JOIN") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		on, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinClause{Table: tr, On: on})
	}
	if p.accept(tokKeyword, "WHERE") {
		if st.Where, err = p.parseCond(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			term := OrderTerm{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				term.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, term)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		if st.Limit, err = p.parseOperand(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "OFFSET") {
		if st.Offset, err = p.parseOperand(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *sqlParser) parseSelectExpr() (SelectExpr, error) {
	var se SelectExpr
	if p.accept(tokSymbol, "*") {
		se.Star = "*"
		return se, nil
	}
	// alias.* form
	if p.at(tokIdent, "") && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		se.Star = p.cur().text
		p.pos += 3
		return se, nil
	}
	e, err := p.parseOperand()
	if err != nil {
		return se, err
	}
	se.Expr = e
	se.Alias, err = p.parseAlias()
	return se, err
}

// parseAlias reads an optional alias: AS name, or a bare name.
func (p *sqlParser) parseAlias() (string, error) {
	if p.accept(tokKeyword, "AS") {
		return p.expectIdent()
	}
	if p.at(tokIdent, "") {
		p.pos++
		return p.toks[p.pos-1].text, nil
	}
	return "", nil
}

func (p *sqlParser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	alias, err := p.parseAlias()
	return TableRef{Table: name, Alias: alias}, err
}

func (p *sqlParser) parseInsert() (Statement, error) {
	p.pos++ // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	st := &InsertStmt{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		if len(row) != len(st.Columns) {
			return nil, p.errf("INSERT row has %d values for %d columns", len(row), len(st.Columns))
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *sqlParser) parseUpdate() (Statement, error) {
	p.pos++ // UPDATE
	st := &UpdateStmt{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, SetClause{Column: col, Value: e})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *sqlParser) parseDelete() (Statement, error) {
	p.pos++ // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	st := &DeleteStmt{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

var comparisons = map[string]bool{"=": true, "<>": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

// parseCond reads comparisons joined by AND, left-associatively. A
// comparison may also be a lone operand, true when its value is.
func (p *sqlParser) parseCond() (Expr, error) {
	var cond Expr
	for {
		e, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if op := p.cur(); op.kind == tokSymbol && comparisons[op.text] || op.kind == tokKeyword && op.text == "LIKE" {
			p.pos++
			r, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			if op.text == "!=" {
				op.text = "<>"
			}
			e = &BinaryExpr{Op: op.text, L: e, R: r}
		}
		if cond == nil {
			cond = e
		} else {
			cond = &BinaryExpr{Op: "AND", L: cond, R: e}
		}
		if !p.accept(tokKeyword, "AND") {
			return cond, nil
		}
	}
}

// parseOperand reads a column, a '?' or a literal. A '-' directly
// before a number is the number's sign, so -1 is a literal; '-' before
// anything else is arithmetic, which the grammar does not have.
func (p *sqlParser) parseOperand() (Expr, error) {
	t := p.cur()
	p.pos++
	switch {
	case t.kind == tokNumber || t.kind == tokSymbol && t.text == "-" && p.at(tokNumber, ""):
		text := t.text
		if t.kind == tokSymbol {
			text += p.cur().text
			p.pos++
		}
		var v Value
		var err error
		if strings.Contains(text, ".") {
			v, err = strconv.ParseFloat(text, 64)
		} else {
			v, err = strconv.ParseInt(text, 10, 64)
		}
		if err != nil {
			return nil, p.errAt(t.pos, "bad number %q", text)
		}
		return &Literal{Val: v}, nil
	case t.kind == tokString:
		return &Literal{Val: t.text}, nil
	case t.kind == tokParam:
		p.params++
		return &Param{Index: p.params - 1}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		return &Literal{Val: nil}, nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		return &Literal{Val: t.text == "TRUE"}, nil
	case t.kind == tokIdent:
		if p.at(tokSymbol, "(") {
			return nil, p.errAt(t.pos, "unknown function %s", strings.ToUpper(t.text))
		}
		if !p.accept(tokSymbol, ".") {
			return &ColRef{Column: t.text}, nil
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColRef{Table: t.text, Column: col}, nil
	}
	p.pos--
	return nil, p.errf("unexpected token %q", t.text)
}
