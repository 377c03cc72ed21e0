package engine_test

// Contract tests for plans that carry their read set into phase 2: what a
// whole-object select builds (spans; objects on demand), and what stays on
// every candidate even when nothing is parsed — the poll, the engine.phase2
// failpoint, LIMIT — and where the byte budget fires.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/db"
	"qof/internal/engine"
	"qof/internal/faultinject"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/pool"
	"qof/internal/qerr"
	"qof/internal/region"
	"qof/internal/scan"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

const (
	abstractQuery = `SELECT r FROM References r WHERE r.Abstract CONTAINS "system"`
	// A value join is never index-exact; without a full index the region
	// join of Section 5.2 is out too, so every candidate parses.
	valueJoinQuery = `SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`
	// A two-variable join: every reference is a candidate of each variable.
	yearJoinQuery = `SELECT r FROM References r, References s WHERE r.Year = s.Year`
)

var paperPartialIndex = grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}}

// TestObjectsOnDemand: phase 2 of an inexact whole-object select builds the
// one attribute its filter reads, an exact one parses nothing, and either
// way Objects returns the complete objects in document order — what the
// full scan builds.
func TestObjectsOnDemand(t *testing.T) {
	for name, spec := range map[string]grammar.IndexSpec{"full": {}, "partial": paperPartialIndex} {
		f := testutil.NewBibFixture(t, 60, spec, nil)
		for _, src := range []string{
			abstractQuery,
			changAuthorQuery,
			valueJoinQuery,
			changAuthorQuery + ` LIMIT 2`,
			`SELECT s FROM References r, References s WHERE r.Key = "Key000003" AND s.Year = r.Year`,
		} {
			q := xsql.MustParse(src)
			res, err := f.Eng.Execute(q)
			if err != nil {
				t.Fatalf("[%s] %s: %v", name, src, err)
			}
			base, err := scan.FullScan(f.Cat, f.Doc, q)
			if err != nil {
				t.Fatal(err)
			}
			want := base.Objects
			if q.Limit > 0 && len(want) > q.Limit {
				want = want[:q.Limit]
			}
			if len(q.From) > 1 {
				// A join's objects come in document order, the scan's in
				// nested-loop order: compare the complete values by key.
				want = byKey(want)
			}
			objs := objects(t, res)
			if len(objs) != len(want) || len(objs) != res.Regions.Len() || len(objs) == 0 {
				t.Fatalf("[%s] %s: %d objects for %d regions, baseline %d\n%s",
					name, src, len(objs), res.Regions.Len(), len(want), res.Plan.Explain())
			}
			for i := range objs {
				if !db.Equal(objs[i], want[i]) {
					t.Errorf("[%s] %s: object %d is\n  %s\nthe full scan built\n  %s", name, src, i, objs[i], want[i])
				}
			}
			if again := objects(t, res); len(again) != len(objs) {
				t.Errorf("[%s] %s: a second Objects call returned %d objects", name, src, len(again))
			}
		}
		res, err := f.Eng.Execute(xsql.MustParse(`SELECT r.Key FROM References r WHERE r.Abstract CONTAINS "system"`))
		if err != nil {
			t.Fatal(err)
		}
		if objs := objects(t, res); objs != nil || len(res.Strings) == 0 {
			t.Errorf("[%s] a path select has %d objects and %d strings", name, len(objs), len(res.Strings))
		}
	}
}

func byKey(vals []db.Value) []db.Value {
	out := append([]db.Value(nil), vals...)
	key := func(v db.Value) string { return db.NavigateStrings(v, db.PathOf(bibtex.NTKey))[0] }
	sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// TestStatsCountWhatWasParsed: Parsed and ParsedBytes are the regions the
// grammar ran over. An inexact plan parses every candidate — pruned or not,
// the parser recognises the whole region — and an exact whole-object select
// none, sequentially and in parallel.
func TestStatsCountWhatWasParsed(t *testing.T) {
	for _, c := range []struct {
		name string
		spec grammar.IndexSpec
		src  string
		all  bool // every candidate is parsed
	}{
		{"exact select", grammar.IndexSpec{}, changAuthorQuery, false},
		{"exact select, limited", grammar.IndexSpec{}, changAuthorQuery + ` LIMIT 3`, false},
		{"unconditional select", grammar.IndexSpec{}, `SELECT r FROM References r`, false},
		{"region join, decided from leaves", grammar.IndexSpec{}, valueJoinQuery, false},
		{"inexact select", paperPartialIndex, changAuthorQuery, true},
		{"inexact select on an unindexed field", paperPartialIndex, abstractQuery, true},
		{"exact candidates, parsed projection", grammar.IndexSpec{}, `SELECT r.Title FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`, true},
		{"value join", paperPartialIndex, valueJoinQuery, true},
	} {
		for _, mode := range []struct {
			name        string
			parallelism int
		}{{"sequential", 1}, {"x4", 4}} {
			t.Cleanup(pool.SetHelpers(mode.parallelism - 1))
			f := testutil.NewBibFixture(t, 80, c.spec, nil)
			res, err := f.Eng.Execute(xsql.MustParse(c.src))
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, mode.name, err)
			}
			st := res.Stats
			if st.Results == 0 || st.Candidates == 0 {
				t.Fatalf("%s (%s): vacuous: %+v", c.name, mode.name, st)
			}
			switch {
			case !c.all && (st.Parsed != 0 || st.ParsedBytes != 0):
				t.Errorf("%s (%s): parsed %d regions, %d bytes; the plan reads nothing of them\n%s",
					c.name, mode.name, st.Parsed, st.ParsedBytes, res.Plan.Explain())
			case c.all && mode.parallelism == 1 && (st.Parsed != st.Candidates || st.ParsedBytes == 0):
				t.Errorf("%s (%s): parsed %d of %d candidates, %d bytes", c.name, mode.name, st.Parsed, st.Candidates, st.ParsedBytes)
			case c.all && st.Parsed == 0:
				t.Errorf("%s (%s): parsed nothing", c.name, mode.name)
			}
		}
	}
}

// cancelAfterHits is a context that reads as canceled once the engine.phase2
// failpoint has been reached k times: cancellation lands between two
// candidates, deterministically. As the context contract has it, Done is
// closed from then on, and Err is non-nil only then.
type cancelAfterHits struct {
	context.Context
	k    uint64
	done chan struct{}
}

func (c cancelAfterHits) Done() <-chan struct{} {
	if faultinject.Hits(faultinject.Phase2) >= c.k {
		return closedDone
	}
	return c.done
}

// closedDone is the Done channel of a context that is over.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c cancelAfterHits) Err() error {
	if faultinject.Hits(faultinject.Phase2) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestUnparsedCandidatesStillPollAndFault: an exact whole-object select
// parses nothing, and every candidate still passes the poll and the
// engine.phase2 failpoint — it stops at its LIMIT, aborts within one
// candidate of a cancel, and trips error, panic and delay faults.
func TestUnparsedCandidatesStillPollAndFault(t *testing.T) {
	f := testutil.NewBibFixture(t, 200, grammar.IndexSpec{}, nil)
	q := xsql.MustParse(changAuthorQuery)
	full, err := f.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	n := full.Stats.Candidates
	if !full.Stats.Exact || full.Stats.Parsed != 0 || n < 10 {
		t.Fatalf("fixture: %+v", full.Stats)
	}
	defer faultinject.Reset()
	configure := func(spec string) {
		t.Helper()
		if err := faultinject.Configure(spec); err != nil {
			t.Fatal(err)
		}
	}

	// A delay of nothing counts the candidates that reach the failpoint.
	configure("engine.phase2=delay:0s")
	if _, err := f.Eng.Execute(q); err != nil {
		t.Fatal(err)
	}
	if hits := faultinject.Hits(faultinject.Phase2); hits != uint64(n) {
		t.Errorf("%d of %d candidates reached the engine.phase2 failpoint", hits, n)
	}

	// LIMIT stops the drive loop: three candidates pass, no more.
	configure("engine.phase2=delay:0s")
	lq := xsql.MustParse(changAuthorQuery + ` LIMIT 3`)
	res, err := f.Eng.Execute(lq)
	if err != nil {
		t.Fatal(err)
	}
	if hits := faultinject.Hits(faultinject.Phase2); hits != 3 || res.Stats.Candidates != 3 || res.Stats.Parsed != 0 ||
		!res.Regions.Equal(region.FromRegions(full.Regions.Regions()[:3])) {
		t.Errorf("LIMIT 3: %d candidates reached the failpoint; stats %+v, regions %v", hits, res.Stats, res.Regions)
	}

	// A cancel that lands after the fifth candidate is seen at the sixth's
	// poll: no further candidate reaches the failpoint.
	configure("engine.phase2=delay:0s")
	ctx := cancelAfterHits{Context: context.Background(), k: 5, done: make(chan struct{})}
	if _, err := f.Eng.ExecuteContext(ctx, q, engine.Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mid-drive: %v, want context.Canceled", err)
	}
	if hits := faultinject.Hits(faultinject.Phase2); hits != 5 {
		t.Errorf("%d candidates reached the failpoint around a cancel after the 5th", hits)
	}

	configure("engine.phase2=error@4")
	if _, err := f.Eng.Execute(q); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("engine.phase2=error@4: %v, want the injected fault", err)
	}
	configure("engine.phase2=panic@4")
	if _, err := f.Eng.Execute(q); !errors.Is(err, qerr.ErrInternal) {
		t.Errorf("engine.phase2=panic@4: %v, want ErrInternal", err)
	}
	configure("engine.phase2=delay:2ms")
	start := time.Now()
	if _, err := f.Eng.Execute(lq); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 3*2*time.Millisecond {
		t.Errorf("three candidates under engine.phase2=delay:2ms took %v", elapsed)
	}

	// The faulted runs poisoned nothing.
	faultinject.Reset()
	res, err = f.Eng.Execute(q)
	if err != nil || !res.Regions.Equal(full.Regions) {
		t.Fatalf("after the faults: %v, %v", res, err)
	}
}

// TestByteBudgetChargesWhatIsParsed: on a query that parses every candidate
// the budget is the sum of their lengths, to the byte — pruning changes what
// is built, not what the grammar runs over — and a query that parses nothing
// is charged nothing.
func TestByteBudgetChargesWhatIsParsed(t *testing.T) {
	f := testutil.NewBibFixture(t, 60, paperPartialIndex, nil)
	for _, src := range []string{changAuthorQuery, abstractQuery, valueJoinQuery} {
		q := xsql.MustParse(src)
		res, err := f.Eng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := algebra.NewEvaluator(f.In).Eval(res.Plan.Vars[0].Candidates)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range cands.Regions() {
			total += r.Len()
		}
		if res.Stats.ParsedBytes != total || total == 0 {
			t.Fatalf("%s: ParsedBytes %d, candidates cover %d", src, res.Stats.ParsedBytes, total)
		}
		if _, err := f.Eng.ExecuteContext(context.Background(), q, engine.Limits{MaxEvalBytes: total}); err != nil {
			t.Errorf("%s: a budget of exactly the candidates' %d bytes: %v", src, total, err)
		}
		if _, err := f.Eng.ExecuteContext(context.Background(), q, engine.Limits{MaxEvalBytes: total - 1}); !errors.Is(err, qerr.ErrBudgetExceeded) {
			t.Errorf("%s: one byte short of the candidates' %d: %v, want ErrBudgetExceeded", src, total, err)
		}
	}
	exact := testutil.NewBibFixture(t, 60, grammar.IndexSpec{}, nil)
	res, err := exact.Eng.ExecuteContext(context.Background(), xsql.MustParse(changAuthorQuery), engine.Limits{MaxEvalBytes: 1})
	if err != nil || res.Stats.Results == 0 || res.Stats.Parsed != 0 {
		t.Errorf("an exact whole-object select under a one-byte budget: %+v, %v", res, err)
	}
}

// TestLoadedIndexDisagreesWithDocument: an index file whose Reference table
// passes Load's bounds checks but holds one region a byte left of the
// document's reference, so its closing brace falls outside. Phase 2 parses
// that candidate with every field it does not read recognised as a flat
// symbol, fails, and runs it again on the general runner: the query fails,
// without a panic, with the ParseError a full parse of the region reports.
// The next query on a good index answers as the full scan does.
func TestLoadedIndexDisagreesWithDocument(t *testing.T) {
	good := testutil.NewBibFixture(t, 20, paperPartialIndex, nil)
	refs := good.In.MustRegion(bibtex.NTReference).Regions()
	k := len(refs) / 2
	shifted := region.Region{Start: refs[k].Start - 1, End: refs[k].End - 1}
	if refs[k-1].End > shifted.Start {
		t.Fatalf("references %v and %v leave no byte between them", refs[k-1], refs[k])
	}
	sets := make(map[string]region.Set)
	for _, name := range good.In.Names() {
		sets[name] = good.In.MustRegion(name)
	}
	rs := slices.Clone(refs)
	rs[k] = shifted
	sets[bibtex.NTReference] = region.FromRegions(rs)
	forged := index.New(good.In.Words(), sets, nil)
	var saved bytes.Buffer
	if err := forged.Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := index.Load(&saved, good.Doc)
	if err != nil {
		t.Fatalf("Load refused a table inside the document's bounds: %v", err)
	}
	_, want := good.Cat.Grammar.ParseValue(good.Doc, bibtex.NTReference, int(shifted.Start), int(shifted.End), nil)
	if want == nil {
		t.Fatalf("the shifted region %v parses", shifted)
	}
	q := xsql.MustParse(valueJoinQuery)
	for _, parallelism := range []int{1, 3} {
		t.Cleanup(pool.SetHelpers(parallelism - 1))
		eng := engine.New(good.Cat, loaded)
		_, err := eng.Execute(q)
		var perr *grammar.ParseError
		if !errors.As(err, &perr) {
			t.Fatalf("parallelism %d: %v, want a ParseError", parallelism, err)
		}
		if !reflect.DeepEqual(perr, want) {
			t.Errorf("parallelism %d: %#v, a full parse of %v reports %#v", parallelism, perr, shifted, want)
		}
	}
	res, err := good.Eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	base, err := scan.FullScan(good.Cat, good.Doc, q)
	if err != nil {
		t.Fatal(err)
	}
	got := objects(t, res)
	if len(got) != len(base.Objects) || len(got) == 0 {
		t.Fatalf("the good index answers %d objects, the full scan %d", len(got), len(base.Objects))
	}
	for i := range got {
		if !db.Equal(got[i], base.Objects[i]) {
			t.Errorf("object %d is\n  %s\nthe full scan built\n  %s", i, got[i], base.Objects[i])
		}
	}
}
