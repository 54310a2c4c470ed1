package mvc

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"webmlgo/internal/cell"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/rdb"
)

func newGetRequest(path string) *http.Request {
	return httptest.NewRequest(http.MethodGet, path, nil)
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	pd := &descriptor.Page{
		ID:    "p",
		Units: []descriptor.UnitRef{{ID: "c"}, {ID: "a"}, {ID: "b"}},
		Edges: []descriptor.Edge{{From: "a", To: "b"}, {From: "b", To: "c"}},
	}
	s, err := descriptor.ComputeSchedule(pd)
	if err != nil {
		t.Fatal(err)
	}
	order := s.Order
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestTopoOrderStableWithoutEdges(t *testing.T) {
	pd := &descriptor.Page{
		ID:    "p",
		Units: []descriptor.UnitRef{{ID: "x"}, {ID: "y"}, {ID: "z"}},
	}
	s, err := descriptor.ComputeSchedule(pd)
	if err != nil {
		t.Fatal(err)
	}
	order := s.Order
	if order[0] != "x" || order[1] != "y" || order[2] != "z" {
		t.Fatalf("order = %v", order)
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	pd := &descriptor.Page{
		ID:    "p",
		Units: []descriptor.UnitRef{{ID: "a"}, {ID: "b"}},
		Edges: []descriptor.Edge{{From: "a", To: "b"}, {From: "b", To: "a"}},
	}
	if _, err := descriptor.ComputeSchedule(pd); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestTopoOrderRejectsUnknownUnits(t *testing.T) {
	pd := &descriptor.Page{
		ID:    "p",
		Units: []descriptor.UnitRef{{ID: "a"}},
		Edges: []descriptor.Edge{{From: "a", To: "ghost"}},
	}
	if _, err := descriptor.ComputeSchedule(pd); err == nil {
		t.Fatal("unknown edge endpoint accepted")
	}
}

func TestConvertParam(t *testing.T) {
	if v := ConvertParam("42"); v != int64(42) {
		t.Fatalf("int: %v (%T)", v, v)
	}
	if v := ConvertParam("3.5"); v != 3.5 {
		t.Fatalf("float: %v", v)
	}
	if v := ConvertParam("abc"); v != "abc" {
		t.Fatalf("string: %v", v)
	}
	if v := ConvertParam(""); v != "" {
		t.Fatalf("empty: %v", v)
	}
}

func TestValidateFields(t *testing.T) {
	fields := []descriptor.FieldSpec{
		{Name: "title", Type: "TEXT", Required: true},
		{Name: "year", Type: "INTEGER"},
		{Name: "price", Type: "REAL"},
		{Name: "flag", Type: "BOOLEAN"},
	}
	errs := ValidateFields(fields, map[string]Value{
		"title": "x", "year": int64(2002), "price": 1.5, "flag": "true",
	})
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	errs = ValidateFields(fields, map[string]Value{
		"year": "not-a-number", "price": "nope", "flag": "maybe",
	})
	if errs["title"] != "required" {
		t.Fatalf("title err = %q", errs["title"])
	}
	if errs["year"] == "" || errs["price"] == "" || errs["flag"] == "" {
		t.Fatalf("errs = %v", errs)
	}
	// Optional empty fields are fine.
	errs = ValidateFields(fields, map[string]Value{"title": "x"})
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
}

func TestForward(t *testing.T) {
	outputs := map[string]Value{"oid": int64(7)}
	params := map[string]Value{"a": int64(1), "b": "x"}
	// Explicit rules: outputs win over params.
	got := forward([]descriptor.ForwardParam{
		{Source: "oid", Target: "volume"},
		{Source: "b", Target: "bb"},
		{Source: "ghost", Target: "g"},
	}, outputs, params)
	if got["volume"] != int64(7) || got["bb"] != "x" {
		t.Fatalf("got %v", got)
	}
	if _, ok := got["g"]; ok {
		t.Fatal("ghost forwarded")
	}
	// No rules: pass-through with outputs overriding.
	got = forward(nil, map[string]Value{"a": int64(9)}, params)
	if got["a"] != int64(9) || got["b"] != "x" {
		t.Fatalf("got %v", got)
	}
}

func TestActionURL(t *testing.T) {
	if got := ActionURL("page/p1", nil); got != "/page/p1" {
		t.Fatal(got)
	}
	got := ActionURL("page/p1", map[string]string{"b": "2", "a": "1"})
	if got != "/page/p1?a=1&b=2" {
		t.Fatal(got)
	}
}

func TestSessionManager(t *testing.T) {
	m := NewSessionManager(0)
	s := m.Register(nil, m.Detached())
	s.Set("k", "v")
	if v, _ := s.Get("k"); v != "v" {
		t.Fatal("session storage broken")
	}
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Fatal("delete broken")
	}
	if s.User() != "" {
		t.Fatal("anonymous session has user")
	}
	s.Set(sessionUserKey, "alice")
	if s.User() != "alice" {
		t.Fatal("user lost")
	}
	if m.Len() != 1 {
		t.Fatalf("sessions = %d", m.Len())
	}
}

func TestSessionSweep(t *testing.T) {
	m := NewSessionManager(time.Minute)
	base := time.Unix(1000, 0)
	m.now = func() time.Time { return base }
	s1 := m.Register(nil, m.Detached())
	_ = s1
	base = base.Add(30 * time.Second)
	m.Register(nil, m.Detached()) // second session
	if m.Len() != 2 {
		t.Fatalf("sessions = %d", m.Len())
	}
	base = base.Add(45 * time.Second) // s1 now idle 75s, s2 idle 45s
	m.mu.Lock()
	m.sweep()
	m.mu.Unlock()
	if m.Len() != 1 {
		t.Fatalf("sessions after sweep = %d", m.Len())
	}
}

// TestSessionSweepOnResolve: sessions whose cookies never come back are
// dropped once registrations double the live count, with no sweeper
// goroutine — 1,000 expired and 1,000 live cookie-less sessions leave the
// 1,000 live ones, and registrations from several goroutines at once
// sweep under the same lock.
func TestSessionSweepOnResolve(t *testing.T) {
	m := NewSessionManager(time.Minute)
	base := time.Unix(1000, 0)
	m.now = func() time.Time { return base }
	for i := 0; i < 2000; i++ {
		if i == 1000 {
			base = base.Add(2 * time.Minute)
		}
		m.Register(nil, m.Detached())
	}
	if m.Len() != 1000 {
		t.Fatalf("sessions = %d, want the 1000 live ones", m.Len())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				m.Register(nil, m.Detached())
			}
		}()
	}
	wg.Wait()
	if m.Len() != 2000 {
		t.Fatalf("sessions = %d after 1000 concurrent registrations, want 2000 live", m.Len())
	}
}

func TestSessionExpiryOnResolve(t *testing.T) {
	m := NewSessionManager(time.Minute)
	base := time.Unix(0, 0)
	m.now = func() time.Time { return base }
	rr := httptest.NewRecorder()
	s := m.Register(rr, m.Detached())
	cookie := rr.Result().Cookies()[0]
	// Within TTL the same session resolves.
	req := newGetRequest("/")
	req.AddCookie(cookie)
	base = base.Add(30 * time.Second)
	if got := m.Resume(nil, req); got.ID != s.ID {
		t.Fatal("session not resumed")
	}
	// Past TTL a new session is issued.
	base = base.Add(2 * time.Minute)
	if got := m.Resume(httptest.NewRecorder(), req); got.ID == s.ID {
		t.Fatal("expired session resumed")
	}
}

// TestRowsToNodesCopiesInFieldOrder: a sibling list is one slab of cells
// in the descriptor's field order (a hand-tuned query may reorder
// columns), each row capped at its width; a missing column fails when the
// bean is built.
func TestRowsToNodesCopiesInFieldOrder(t *testing.T) {
	rows := &rdb.Rows{Columns: []string{"oid", "title"}, Data: [][]cell.Cell{MustCells(int64(1), "a"), MustCells(int64(2), "b")}}
	same, err := rowsToNodes(rows, []descriptor.FieldDef{{Name: "oid", Column: "oid"}, {Name: "Title", Column: "TITLE"}})
	if err != nil || !reflect.DeepEqual(same[1].Values, MustCells(int64(2), "b")) {
		t.Fatalf("nodes = %+v (err %v)", same, err)
	}
	if cap(same[0].Values) != 2 {
		t.Fatalf("row capacity %d: appending to a row would reach the next", cap(same[0].Values))
	}
	swapped, err := rowsToNodes(rows, []descriptor.FieldDef{{Name: "Title", Column: "title"}, {Name: "oid", Column: "oid"}})
	if err != nil || !reflect.DeepEqual(swapped[1].Values, MustCells("b", int64(2))) {
		t.Fatalf("reordered nodes = %+v (err %v)", swapped, err)
	}
	if _, err := rowsToNodes(rows, []descriptor.FieldDef{{Name: "x", Column: "missing"}}); err == nil {
		t.Fatal("missing column accepted")
	}
}

// TestRowsToNodesTakesExactRows: a node takes its result row as it is
// when the result's columns are the outputs in order and its rows are
// exact; a result whose slab holds more than its rows, or whose columns
// are other than the outputs, is copied, so a bean pins only its cells.
func TestRowsToNodesTakesExactRows(t *testing.T) {
	db := rdb.Open()
	if _, err := db.Exec("CREATE TABLE item (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT)"); err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{"a", "b", "c", "d"} {
		if _, err := db.Exec("INSERT INTO item (title) VALUES (?)", title); err != nil {
			t.Fatal(err)
		}
	}
	const upTo = "SELECT t.oid, t.title FROM item t WHERE t.oid <= ? ORDER BY t.oid"
	fields := []descriptor.FieldDef{{Name: "oid", Column: "oid"}, {Name: "Title", Column: "title"}}
	query := func(n int64) *rdb.Rows {
		rows, err := db.Query(upTo, n)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	query(4)
	for _, c := range []struct {
		name   string
		rows   *rdb.Rows
		fields []descriptor.FieldDef
		shared bool
	}{
		{"exact, outputs in order", query(4), fields, true},
		{"slab sized for 4 rows, 2 came", query(2), fields, false},
		{"outputs reordered", query(4), []descriptor.FieldDef{fields[1], fields[0]}, false},
		{"one column unshown", query(4), fields[1:], false},
	} {
		nodes, err := rowsToNodes(c.rows, c.fields)
		if err != nil || len(nodes) != c.rows.Len() {
			t.Fatalf("%s: %d nodes, err %v", c.name, len(nodes), err)
		}
		if shared := &nodes[0].Values[0] == &c.rows.Data[0][0]; shared != c.shared {
			t.Errorf("%s: node shares its result row: %v, want %v", c.name, shared, c.shared)
		}
		if w := len(c.fields); cap(nodes[0].Values) != w {
			t.Errorf("%s: row capacity %d, want %d", c.name, cap(nodes[0].Values), w)
		}
	}
}
