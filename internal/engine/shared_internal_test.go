package engine

// White-box tests of the shared-execution coordinator: batch formation is
// driven by hand (the window stretched far beyond the orchestration delays)
// so they are deterministic on any scheduler, including a single CPU where
// free-running queries rarely overlap.

import (
	"context"
	"testing"
	"time"

	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/db"
	"qof/internal/grammar"
	"qof/internal/mpm"
	"qof/internal/text"
	"qof/internal/xsql"
)

const sharedScanQuery = `SELECT r FROM References r WHERE r.Title CONTAINS "Taylor"`

// TestBatchScanDeterministic forms a batch by hand: one query keeps the
// engine busy, a second becomes the leader of a stretched window, a third
// joins as a member — both leader and member must receive a scan that
// answers their word atom with exactly the index's postings.
func TestBatchScanDeterministic(t *testing.T) {
	g := bibtex.Grammar()
	doc := text.NewDocument("shared.bib", bibtex.SampleEntry)
	in, _, err := g.BuildInstance(doc, g.FullIndexSpec())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(bibtex.Catalog(), in)
	eng.EnableSharedExecution()
	sh := eng.shared
	sh.window = 100 * time.Millisecond

	plan, err := eng.cat.Compile(xsql.MustParse(sharedScanQuery), in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Query 1 occupies the engine so later arrivals batch.
	scan1, release1 := sh.enter(ctx, plan)
	if scan1 != nil {
		t.Fatal("a query entering an idle engine must not receive a scan")
	}

	// Query 2 leads the batch; it blocks in enter for the window, so run it
	// aside and give it a moment to take the leader slot.
	type entered struct {
		scan    *mpm.Result
		release func()
	}
	leaderc := make(chan entered, 1)
	go func() {
		s, r := sh.enter(ctx, plan)
		leaderc <- entered{s, r}
	}()
	time.Sleep(10 * time.Millisecond)

	// Query 3 joins as a member and waits for the leader's scan.
	scan3, release3 := sh.enter(ctx, plan)
	lead := <-leaderc

	for name, scan := range map[string]*mpm.Result{"leader": lead.scan, "member": scan3} {
		if scan == nil {
			t.Fatalf("%s received no scan", name)
		}
		pts, ok := scan.Lookup("Taylor")
		if !ok {
			t.Fatalf("%s scan does not answer the plan's word atom", name)
		}
		want := in.Words().MatchPoints("Taylor")
		if !pts.Equal(want) {
			t.Errorf("%s scan postings = %v, want %v", name, pts.Regions(), want.Regions())
		}
	}
	release1()
	lead.release()
	release3()

	// The busy period ended: the engine is idle again and the next query
	// runs unbatched.
	if got := sh.inflight; got != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", got)
	}
	scan4, release4 := sh.enter(ctx, plan)
	if scan4 != nil {
		t.Error("query after the busy period still received a scan")
	}
	release4()
}

// TestBatchLoneLeaderSkipsScan checks the members >= 2 gate: a leader whose
// window expires with no member does not pay for a scan.
func TestBatchLoneLeaderSkipsScan(t *testing.T) {
	g := bibtex.Grammar()
	doc := text.NewDocument("shared.bib", bibtex.SampleEntry)
	in, _, err := g.BuildInstance(doc, g.FullIndexSpec())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(bibtex.Catalog(), in)
	eng.EnableSharedExecution()
	sh := eng.shared
	sh.window = time.Millisecond

	plan, err := eng.cat.Compile(xsql.MustParse(sharedScanQuery), in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, release1 := sh.enter(ctx, plan)
	scan2, release2 := sh.enter(ctx, plan) // leader; window expires alone
	if scan2 != nil {
		t.Error("lone leader received a scan")
	}
	release1()
	release2()
}

// TestBatchCanceledLeader checks that a leader whose context dies during
// the window releases the group without scanning and without hanging any
// member.
func TestBatchCanceledLeader(t *testing.T) {
	g := bibtex.Grammar()
	doc := text.NewDocument("shared.bib", bibtex.SampleEntry)
	in, _, err := g.BuildInstance(doc, g.FullIndexSpec())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(bibtex.Catalog(), in)
	eng.EnableSharedExecution()
	sh := eng.shared
	sh.window = time.Hour // only cancellation can end the window

	plan, err := eng.cat.Compile(xsql.MustParse(sharedScanQuery), in)
	if err != nil {
		t.Fatal(err)
	}
	_, release1 := sh.enter(context.Background(), plan)
	cctx, cancel := context.WithCancel(context.Background())
	leaderc := make(chan *mpm.Result, 1)
	go func() {
		s, r := sh.enter(cctx, plan)
		r()
		leaderc <- s
	}()
	time.Sleep(10 * time.Millisecond)
	memberc := make(chan *mpm.Result, 1)
	go func() {
		s, r := sh.enter(context.Background(), plan)
		r()
		memberc <- s
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case s := <-leaderc:
		if s != nil {
			t.Error("canceled leader still scanned")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled leader hung in enter")
	}
	select {
	case s := <-memberc:
		if s != nil {
			t.Error("member of a canceled batch received a scan")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("member hung after the leader was canceled")
	}
	release1()
}

// TestSharedExecutionAccessor covers the enabled/disabled report.
func TestSharedExecutionAccessor(t *testing.T) {
	g := bibtex.Grammar()
	doc := text.NewDocument("acc.bib", bibtex.SampleEntry)
	in, _, err := g.BuildInstance(doc, g.FullIndexSpec())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(bibtex.Catalog(), in)
	if eng.SharedExecution() {
		t.Error("shared execution reported enabled before EnableSharedExecution")
	}
	eng.EnableSharedExecution()
	if !eng.SharedExecution() {
		t.Error("shared execution reported disabled after EnableSharedExecution")
	}
}

// TestBatchDetach covers the panic-unwind path of lead: detaching the
// forming batch must let the next arrival start a fresh group, and
// detaching a group that is no longer current must be a no-op.
func TestBatchDetach(t *testing.T) {
	g := bibtex.Grammar()
	doc := text.NewDocument("detach.bib", bibtex.SampleEntry)
	in, _, err := g.BuildInstance(doc, g.FullIndexSpec())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(bibtex.Catalog(), in)
	eng.EnableSharedExecution()
	sh := eng.shared
	plan, err := eng.cat.Compile(xsql.MustParse(sharedScanQuery), in)
	if err != nil {
		t.Fatal(err)
	}
	_, release1 := sh.enter(context.Background(), plan)
	defer release1()
	grp, leader := sh.join(plan)
	if grp == nil || !leader {
		t.Fatalf("second arrival: group=%v leader=%v, want a fresh group led", grp, leader)
	}
	sh.detach(grp)
	if sh.cur != nil {
		t.Error("detach left the group current")
	}
	grp2, leader2 := sh.join(plan)
	if grp2 == nil || !leader2 || grp2 == grp {
		t.Errorf("arrival after detach: group=%p leader=%v, want a fresh led group (old %p)", grp2, leader2, grp)
	}
	sh.detach(grp) // stale detach must not clobber the new group
	if sh.cur != grp2 {
		t.Error("stale detach removed the new group")
	}
	sh.release()
	sh.release()
}

// TestParseTableAbort covers the leader-abort path: an aborted flight is
// removed from the table, waiters are released with ok=false, and the next
// join for the same key leads a fresh parse.
func TestParseTableAbort(t *testing.T) {
	pt := newParseTable()
	key := parseKey{epoch: 1, nt: "Reference", start: 0, end: 10}
	fl, leader := pt.join(key)
	if !leader {
		t.Fatal("first join must lead")
	}
	done := make(chan bool, 1)
	go func() {
		_, _, ok := fl.wait(context.Background())
		done <- ok
	}()
	pt.abort(key, fl)
	select {
	case ok := <-done:
		if ok {
			t.Error("waiter of an aborted flight got ok=true")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung on an aborted flight")
	}
	fl2, leader := pt.join(key)
	if !leader {
		t.Error("join after abort did not lead a fresh parse")
	}
	if fl2 == fl {
		t.Error("join after abort returned the aborted flight")
	}
}

// TestParseFlightWaitCancel covers the waiter-context-death branch.
func TestParseFlightWaitCancel(t *testing.T) {
	pt := newParseTable()
	fl, _ := pt.join(parseKey{epoch: 2, nt: "Reference", start: 0, end: 5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err, ok := fl.wait(ctx); ok || err == nil {
		t.Errorf("wait on a dead context: ok=%v err=%v, want ok=false with the context error", ok, err)
	}
}

// TestParseTableKeepsReadSetsApart: a shared value holds only what the
// plan that parsed it reads, so the table shares between plans that read
// the same attributes and never across read sets. Three plans over one
// candidate within one busy period: the second reads another attribute and
// must get its own value; the third is another query with the first's read
// set and is served the first's.
func TestParseTableKeepsReadSetsApart(t *testing.T) {
	g := bibtex.Grammar()
	doc := text.NewDocument("shared.bib", bibtex.SampleEntry)
	in, _, err := g.BuildInstance(doc, grammar.IndexSpec{Names: []string{bibtex.NTReference}})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(bibtex.Catalog(), in)
	eng.EnableSharedExecution()
	sh := eng.shared
	plan := func(src string) *compile.Plan {
		t.Helper()
		p, err := eng.cat.Compile(xsql.MustParse(src), in)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	title := plan(`SELECT r.Title FROM References r`)
	key := plan(`SELECT r.Key FROM References r`)
	titleToo := plan(`SELECT r.Title FROM References r WHERE NOT r.Title CONTAINS "zebra" LIMIT 5`)
	if a, b, c := title.Vars[0].Reads, key.Vars[0].Reads, titleToo.Vars[0].Reads; a.String() != "Title" || b.String() != "Key" || c.String() != "Title" || a == c {
		t.Fatalf("read sets %q, %q, %q", a, b, c)
	}

	_, release := sh.enter(context.Background(), title) // keeps the table through the busy period
	defer release()
	es := &execEnv{ctx: context.Background()}
	r := in.MustRegion(bibtex.NTReference).At(0)
	parse := func(p *compile.Plan) db.Value {
		t.Helper()
		v, err := sh.parse(es, &p.Vars[0], r)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	first, second := parse(title), parse(key)
	if got, want := first.String(), `tuple(Title: "Solving Ordinary Differential Equations Using Taylor Series")`; got != want {
		t.Errorf("reading Title: %s", got)
	}
	if got, want := second.String(), `tuple(Key: "Corl82a")`; got != want {
		t.Errorf("reading Key after a plan that reads Title parsed the same region: %s, want %s", got, want)
	}
	if n := es.parseDedups.Load(); n != 0 {
		t.Errorf("%d parses deduplicated across different read sets", n)
	}
	if third := parse(titleToo); third != first || es.parseDedups.Load() != 1 {
		t.Errorf("a second plan reading Title: value shared %v, %d dedups; want the first plan's value", third == first, es.parseDedups.Load())
	}
}
