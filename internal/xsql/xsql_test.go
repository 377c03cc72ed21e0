package xsql

import (
	"strings"
	"testing"
	"testing/quick"

	"qof/internal/db"
)

// sampleRef builds a reference tuple with the given author and editor last
// names for Filter tests.
func sampleRef(authors, editors []string) *db.Tuple {
	names := func(lasts []string) *db.Tuple {
		set := db.NewSet()
		for _, l := range lasts {
			set.Add(db.NewTuple(0).
				Put("First_Name", db.String("A")).
				Put("Last_Name", db.String(l)))
		}
		return db.NewTuple(0).Put("Name", set)
	}
	return db.NewTuple(0).
		Put("Key", db.String("k1")).
		Put("Authors", names(authors)).
		Put("Editors", names(editors))
}

// evalOne compiles q's WHERE clause and decides it with v bound to the
// query's only range variable.
func evalOne(t *testing.T, q *Query, v db.Value) bool {
	t.Helper()
	f, err := CompileFilter(q)
	if err != nil {
		t.Fatalf("CompileFilter(%s): %v", q, err)
	}
	return f.EvalOne(v)
}

func TestFilterConst(t *testing.T) {
	ref := sampleRef([]string{"Chang", "Corliss"}, []string{"Griewank"})
	eval := func(src string) bool {
		t.Helper()
		return evalOne(t, MustParse("SELECT r FROM References r WHERE "+src), ref)
	}
	if !eval(`r.Authors.Name.Last_Name = "Chang"`) {
		t.Error("Chang as author")
	}
	if eval(`r.Editors.Name.Last_Name = "Chang"`) {
		t.Error("Chang is not an editor")
	}
	if !eval(`r.*X.Last_Name = "Griewank"`) {
		t.Error("star path")
	}
	if !eval(`r.Authors.Name.Last_Name = "Chang" AND r.Key = "k1"`) {
		t.Error("AND")
	}
	if eval(`r.Authors.Name.Last_Name = "Chang" AND r.Key = "zz"`) {
		t.Error("AND false")
	}
	if !eval(`r.Key = "zz" OR r.Key = "k1"`) {
		t.Error("OR")
	}
	if !eval(`NOT r.Key = "zz"`) {
		t.Error("NOT")
	}
	if eval(`r.Missing = "x"`) {
		t.Error("missing attribute")
	}
}

func TestFilterJoin(t *testing.T) {
	both := sampleRef([]string{"Chang"}, []string{"Chang", "Other"})
	disjoint := sampleRef([]string{"Chang"}, []string{"Corliss"})
	q := MustParse(`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`)
	if !evalOne(t, q, both) {
		t.Error("self-join should match")
	}
	if evalOne(t, q, disjoint) {
		t.Error("disjoint should not match")
	}
	// Empty side.
	empty := sampleRef(nil, []string{"Chang"})
	if evalOne(t, q, empty) {
		t.Error("empty side should not match")
	}
}

func TestCompileFilterErrors(t *testing.T) {
	// Parse rejects unbound variables; a hand-built query reaches the
	// filter compiler unchecked.
	q := MustParse(`SELECT r FROM References r WHERE r.A = "x"`)
	q.From = nil
	if _, err := CompileFilter(q); err == nil {
		t.Error("unbound variable")
	}
	qj := MustParse(`SELECT r FROM References r, Other s WHERE r.A = s.B`)
	qj.From = qj.From[:1]
	if _, err := CompileFilter(qj); err == nil {
		t.Error("unbound join variable")
	}
	qc := MustParse(`SELECT r FROM R r WHERE r.A CONTAINS "x"`)
	qc.From[0].Var = "s"
	if _, err := CompileFilter(qc); err == nil {
		t.Error("unbound variable under CONTAINS")
	}
	if !evalOne(t, MustParse(`SELECT r FROM References r`), sampleRef(nil, nil)) {
		t.Error("no WHERE clause is true")
	}
	// An unbound value (nil) satisfies nothing.
	if evalOne(t, MustParse(`SELECT r FROM References r WHERE r.A = "x"`), nil) {
		t.Error("nil value matched")
	}
}

func TestFilterJoinAcrossVariables(t *testing.T) {
	q := MustParse(`SELECT r FROM References r, References s WHERE r.Key = s.Authors.Name.Last_Name AND NOT s.Key = "zz"`)
	f, err := CompileFilter(q)
	if err != nil {
		t.Fatal(err)
	}
	r := db.NewTuple(0).Put("Key", db.String("Chang"))
	s := sampleRef([]string{"Chang"}, nil)
	if !f.Eval([]db.Value{r, s}) {
		t.Error("bindings in FROM order")
	}
	if f.Eval([]db.Value{s, r}) {
		t.Error("swapped bindings matched")
	}
}

func TestParsePaperQuery(t *testing.T) {
	q := MustParse(`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)
	if len(q.From) != 1 || q.From[0].Class != "References" || q.From[0].Var != "r" {
		t.Fatalf("From = %v", q.From)
	}
	if q.Select.Var != "r" || len(q.Select.Segs) != 0 {
		t.Fatalf("Select = %v", q.Select)
	}
	c, ok := q.Where.(CmpConst)
	if !ok {
		t.Fatalf("Where = %T", q.Where)
	}
	if c.Word != "Chang" || c.Path.String() != "r.Authors.Name.Last_Name" {
		t.Fatalf("cmp = %v", c)
	}
	if c.Path.HasVariables() {
		t.Error("plain path flagged as variable")
	}
	if got := c.Path.Attrs(); len(got) != 3 || got[0] != "Authors" || got[2] != "Last_Name" {
		t.Errorf("Attrs = %v", got)
	}
	if cls, ok := q.ClassOf("r"); !ok || cls != "References" {
		t.Error("ClassOf")
	}
	if _, ok := q.ClassOf("zzz"); ok {
		t.Error("ClassOf unknown")
	}
}

func TestParseProjection(t *testing.T) {
	q := MustParse(`SELECT r.Authors.Name.Last_Name FROM References r`)
	if q.Where != nil {
		t.Error("no WHERE expected")
	}
	if q.Select.String() != "r.Authors.Name.Last_Name" {
		t.Errorf("Select = %v", q.Select)
	}
}

func TestParseJoin(t *testing.T) {
	q := MustParse(`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`)
	c, ok := q.Where.(CmpPaths)
	if !ok {
		t.Fatalf("Where = %T", q.Where)
	}
	if c.L.String() != "r.Editors.Name.Last_Name" || c.R.String() != "r.Authors.Name.Last_Name" {
		t.Errorf("join = %v", c)
	}
}

func TestParseBoolean(t *testing.T) {
	q := MustParse(`SELECT r FROM References r WHERE r.Year = "1982" AND (r.Key = "a" OR NOT r.Key = "b")`)
	and, ok := q.Where.(And)
	if !ok {
		t.Fatalf("top = %T", q.Where)
	}
	or, ok := and.R.(Or)
	if !ok {
		t.Fatalf("right = %T", and.R)
	}
	if _, ok := or.R.(Not); !ok {
		t.Fatalf("or right = %T", or.R)
	}
	if got := len(Conds(q.Where)); got != 3 {
		t.Errorf("Conds = %d", got)
	}
	// Precedence: AND binds tighter than OR.
	q2 := MustParse(`SELECT r FROM R r WHERE r.A = "1" OR r.B = "2" AND r.C = "3"`)
	if _, ok := q2.Where.(Or); !ok {
		t.Errorf("top = %T, want Or", q2.Where)
	}
}

func TestParseVariables(t *testing.T) {
	q := MustParse(`SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"`)
	c := q.Where.(CmpConst)
	if len(c.Path.Segs) != 2 || !c.Path.Segs[0].Star || c.Path.Segs[0].Var != "X" {
		t.Fatalf("star path = %+v", c.Path.Segs)
	}
	if !c.Path.HasVariables() {
		t.Error("HasVariables")
	}
	if c.Path.String() != "r.*X.Last_Name" {
		t.Errorf("String = %q", c.Path)
	}
	// Anonymous star and one-step variables.
	q2 := MustParse(`SELECT r FROM References r WHERE r.*.Last_Name = "C"`)
	if !q2.Where.(CmpConst).Path.Segs[0].Star {
		t.Error("anonymous star")
	}
	q3 := MustParse(`SELECT r FROM References r WHERE r.?X.Name.Last_Name = "C"`)
	segs := q3.Where.(CmpConst).Path.Segs
	if !segs[0].Any || segs[0].Var != "X" || segs[1].Attr != "Name" {
		t.Errorf("any path = %+v", segs)
	}
	if segs[0].String() != "?X" {
		t.Errorf("seg string = %q", segs[0])
	}
}

func TestParseContains(t *testing.T) {
	q := MustParse(`SELECT r FROM References r WHERE r.Abstract CONTAINS "differentiation"`)
	c, ok := q.Where.(CmpContains)
	if !ok {
		t.Fatalf("Where = %T", q.Where)
	}
	if c.Word != "differentiation" || c.Path.String() != "r.Abstract" {
		t.Fatalf("contains = %v", c)
	}
	if !strings.Contains(q.String(), "CONTAINS") {
		t.Errorf("String = %q", q)
	}
	// Round trip.
	if MustParse(q.String()).String() != q.String() {
		t.Error("round trip")
	}
	// CONTAINS needs a string constant.
	if _, err := Parse(`SELECT r FROM R r WHERE r.A CONTAINS r.B`); err == nil {
		t.Error("CONTAINS with path accepted")
	}
}

func TestParseLimit(t *testing.T) {
	q := MustParse(`SELECT r FROM References r WHERE r.Key STARTS "C" LIMIT 7`)
	if q.Limit != 7 {
		t.Fatalf("Limit = %d, want 7", q.Limit)
	}
	if got := q.String(); !strings.HasSuffix(got, " LIMIT 7") {
		t.Errorf("String = %q", got)
	}
	if MustParse(q.String()).String() != q.String() {
		t.Error("round trip")
	}
	// LIMIT without WHERE.
	if q := MustParse(`SELECT r FROM References r LIMIT 2`); q.Limit != 2 || q.Where != nil {
		t.Errorf("bare LIMIT: %+v", q)
	}
	// No LIMIT leaves the zero value (unlimited).
	if q := MustParse(`SELECT r FROM References r`); q.Limit != 0 {
		t.Errorf("Limit = %d, want 0", q.Limit)
	}
	for _, bad := range []string{
		`SELECT r FROM References r LIMIT 0`,
		`SELECT r FROM References r LIMIT -1`,
		`SELECT r FROM References r LIMIT x`,
		`SELECT r FROM References r LIMIT "2"`,
		`SELECT r FROM References r LIMIT`,
		`SELECT r FROM References r LIMIT 2 3`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFilterContains(t *testing.T) {
	eval := func(src string) bool {
		t.Helper()
		return evalOne(t, MustParse("SELECT r FROM References r WHERE "+src), NewTestTuple())
	}
	if !eval(`r.Abstract CONTAINS "differentiation"`) {
		t.Error("word in abstract")
	}
	if eval(`r.Abstract CONTAINS "different"`) {
		t.Error("substring is not a whole word")
	}
	if !eval(`r.Abstract CONTAINS "automatic differentiation"`) {
		t.Error("phrase containment")
	}
	if eval(`r.Abstract CONTAINS "zebra"`) {
		t.Error("absent word")
	}
}

// NewTestTuple builds a tuple with an Abstract attribute for CONTAINS tests.
func NewTestTuple() db.Value {
	return db.NewTuple(0).Put("Abstract", db.String("uses automatic differentiation to solve"))
}

func TestParseMultipleFrom(t *testing.T) {
	q := MustParse(`SELECT r FROM References r, Citations c WHERE r.Key = c.Target`)
	if len(q.From) != 2 || q.From[1].Class != "Citations" || q.From[1].Var != "c" {
		t.Fatalf("From = %v", q.From)
	}
}

func TestQueryString(t *testing.T) {
	src := `SELECT r FROM References r WHERE r.Year = "1982" AND r.Key = "a"`
	q := MustParse(src)
	q2 := MustParse(q.String())
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
	for _, want := range []string{"SELECT r", "FROM References r", "WHERE", "AND"} {
		if !strings.Contains(q.String(), want) {
			t.Errorf("String missing %q: %q", want, q)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`FROM References r`,
		`SELECT FROM References r`,
		`SELECT r References r`,
		`SELECT r FROM References`,
		`SELECT r FROM References r WHERE`,
		`SELECT r FROM References r WHERE r.A`,
		`SELECT r FROM References r WHERE r.A = `,
		`SELECT r FROM References r WHERE (r.A = "x"`,
		`SELECT r FROM References r extra`,
		`SELECT r FROM References r WHERE x.A = "c"`,        // unbound variable
		`SELECT x FROM References r`,                        // unbound select
		`SELECT r FROM References r, Other r`,               // duplicate variable
		`SELECT r FROM References r WHERE r. = "x"`,         // missing attr
		`SELECT r FROM References r WHERE r.A = "x" WHERE`,  // trailing
		`SELECT r FROM References r WHERE NOT`,              // dangling NOT
		`SELECT r FROM References r WHERE r.A = "b" AND`,    // dangling AND
		`SELECT r FROM References r WHERE r.A == "b"`,       // bad operator
		`SELECT r FROM "References" r WHERE r.A = "b"`,      // string as class
		`SELECT r FROM References r WHERE r.A = "b" OR 3 =`, // junk
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	q, err := Parse(`select r from References r where r.Key = "k"`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Where == nil {
		t.Error("lowercase keywords")
	}
}

func TestCondString(t *testing.T) {
	q := MustParse(`SELECT r FROM R r WHERE NOT (r.A = "x" OR r.B = r.C)`)
	s := q.Where.String()
	for _, want := range []string{"NOT", "OR", `r.A = "x"`, "r.B = r.C"} {
		if !strings.Contains(s, want) {
			t.Errorf("Cond.String = %q missing %q", s, want)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		q, err := Parse(s)
		return err != nil || q != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Query-shaped prefixes with junk suffixes.
	for _, s := range []string{
		`SELECT r FROM R r WHERE r.A = "x" ) (`,
		`SELECT r FROM R r WHERE ((((`,
		`SELECT r..B FROM R r`,
		`SELECT r FROM R r WHERE r.A CONTAINS`,
		`SELECT r FROM R r WHERE r.A STARTS STARTS`,
		"SELECT r FROM R r WHERE r.A = \"unterminated",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}
