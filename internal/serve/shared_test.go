package serve_test

// One engine per file: a publish indexes each file once and every replica of
// it runs that engine; a reload indexes only what is new or changed. The
// index.build failpoint makes "built nothing" an exact check, not a timing.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qof"
	"qof/internal/algebra"
	"qof/internal/faultinject"
	"qof/internal/qgen"
	"qof/internal/serve"
	"qof/internal/testutil"
)

// reloadResult is a /reload response body, success or failure.
type reloadResult struct {
	Epoch  uint64 `json:"epoch"`
	Files  int    `json:"files"`
	Built  int    `json:"built"`
	Reused int    `json:"reused"`
	Error  string `json:"error"`
}

// reloadLeg starts a 4-shard, 2-replica daemon whose /reload publishes
// whatever next holds, and publishes it once.
func reloadLeg(t *testing.T, next *atomic.Pointer[map[string]string]) (*serve.Server, string) {
	t.Helper()
	srv := newServer(t, serve.Config{
		Shards: 4, Replicas: 2,
		Reload: func(context.Context) (map[string]string, error) { return *next.Load(), nil },
	})
	if _, err := srv.Publish(*next.Load()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

func postReload(t *testing.T, url string) (int, reloadResult) {
	t.Helper()
	resp, err := http.Post(url+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body reloadResult
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// reloadQueries is a fixed slice of the bibtex differential workload.
func reloadQueries() []string {
	gen := qgen.NewQueryGen(qgenDomain("bibtex"), diffQuerySeed)
	queries := []string{`SELECT r.Key FROM References r`}
	for len(queries) < 24 {
		queries = append(queries, gen.Query().String())
	}
	return queries
}

// answers renders srv's envelope for every query with the two fields a
// generation may change without changing the answer, epoch and elapsed_us,
// zeroed.
func answers(t *testing.T, srv *serve.Server, queries []string) []string {
	t.Helper()
	out := make([]string, len(queries))
	for i, q := range queries {
		resp, err := srv.Execute(t.Context(), serve.Request{Query: q})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		env := serve.NewEnvelope(resp)
		env.Epoch, env.ElapsedUs = 0, 0
		b, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

func sameAnswers(t *testing.T, what string, queries, got, want []string) {
	t.Helper()
	for i := range queries {
		if got[i] != want[i] {
			t.Fatalf("%s: %q:\n  got  %s\n  want %s", what, queries[i], got[i], want[i])
		}
	}
}

// TestReloadUnchangedBuildsNothing: with every index build failing, a reload
// of the same files still succeeds — it indexes nothing — advances the
// epoch, and answers byte for byte as before.
func TestReloadUnchangedBuildsNothing(t *testing.T) {
	var next atomic.Pointer[map[string]string]
	files := domainFiles("bibtex")
	next.Store(&files)
	srv, url := reloadLeg(t, &next)
	queries := reloadQueries()
	before := answers(t, srv, queries)

	if err := faultinject.Configure(faultinject.IndexBuild + "=error"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	status, body := postReload(t, url)
	if status != http.StatusOK || body.Error != "" {
		t.Fatalf("reload of unchanged files = %d %q", status, body.Error)
	}
	if n := faultinject.Hits(faultinject.IndexBuild); n != 0 {
		t.Fatalf("reload of unchanged files started %d index builds", n)
	}
	if body.Epoch != 2 || srv.Epoch() != 2 || body.Built != 0 || body.Reused != len(files) {
		t.Fatalf("reload body %+v (server epoch %d), want epoch 2, 0 built, %d reused", body, srv.Epoch(), len(files))
	}
	sameAnswers(t, "after an unchanged reload", queries, answers(t, srv, queries), before)
}

// TestReloadRebuildsOnlyChanged: a reload indexes exactly the file whose
// content changed. Under a failing index build it fails naming that file
// alone and the old epoch keeps serving; without the fault the /reload body
// counts one build, and the daemon answers as the direct facade does over
// the new files.
func TestReloadRebuildsOnlyChanged(t *testing.T) {
	var next atomic.Pointer[map[string]string]
	v1 := domainFiles("bibtex")
	next.Store(&v1)
	srv, url := reloadLeg(t, &next)
	queries := reloadQueries()
	before := answers(t, srv, queries)

	v2 := make(map[string]string, len(v1))
	var changed string
	for name, content := range v1 {
		v2[name] = content
		if changed == "" || name < changed {
			changed = name
		}
	}
	v2[changed] = qgen.BibTeX(diffCorpusSeed + 99).Doc.Content()
	next.Store(&v2)

	if err := faultinject.Configure(faultinject.IndexBuild + "=error"); err != nil {
		t.Fatal(err)
	}
	status, body := postReload(t, url)
	faultinject.Reset()
	if status != http.StatusInternalServerError || !strings.Contains(body.Error, changed) {
		t.Fatalf("reload under a failing build = %d %q, want 500 naming %s", status, body.Error, changed)
	}
	for name := range v1 {
		if name != changed && strings.Contains(body.Error, name) {
			t.Errorf("the failed reload names the unchanged %s: %s", name, body.Error)
		}
	}
	if srv.Epoch() != 1 {
		t.Fatalf("a failed reload moved the epoch to %d", srv.Epoch())
	}
	sameAnswers(t, "after a failed reload", queries, answers(t, srv, queries), before)

	status, body = postReload(t, url)
	if status != http.StatusOK || body.Epoch != 2 || body.Built != 1 || body.Reused != len(v1)-1 {
		t.Fatalf("reload of one changed file = %d %+v, want epoch 2, 1 built, %d reused", status, body, len(v1)-1)
	}
	direct := qof.BibTeX().NewCorpus()
	if err := direct.AddAll(v2); err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := direct.ExecuteContext(t.Context(), q, qof.WithPartialResults())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(expected(t, res, 0, 4, len(v2)))
	}
	sameAnswers(t, "after reloading a changed file", queries, answers(t, srv, queries), want)
}

// TestReplicasShareOneEngine: whatever the replication, every file has
// exactly one engine across all the shards that view it, and a reload of
// unchanged files keeps it.
func TestReplicasShareOneEngine(t *testing.T) {
	for _, r := range []int{2, 4} {
		srv := newServer(t, serve.Config{Shards: 4, Replicas: r})
		files := sampleFiles(16)
		if _, err := srv.Publish(files); err != nil {
			t.Fatal(err)
		}
		engineOf := make(map[string]uintptr)
		views := make(map[string]int)
		owner := make(map[uintptr]string)
		for _, view := range serve.ShardEngines(srv) {
			for name, e := range view {
				if prev, ok := engineOf[name]; ok && prev != e {
					t.Fatalf("R=%d: %s runs on two engines", r, name)
				}
				if o, ok := owner[e]; ok && o != name {
					t.Fatalf("R=%d: %s and %s share an engine", r, o, name)
				}
				engineOf[name], owner[e] = e, name
				views[name]++
			}
		}
		for name := range files {
			if views[name] != r {
				t.Errorf("R=%d: %s is viewed by %d shards", r, name, views[name])
			}
		}
		if _, err := srv.Publish(files); err != nil {
			t.Fatal(err)
		}
		for sh, view := range serve.ShardEngines(srv) {
			for name, e := range view {
				if e != engineOf[name] {
					t.Errorf("R=%d: shard %d runs %s on a new engine after an unchanged reload", r, sh, name)
				}
			}
		}
	}
}

// TestHedgeAndFailoverOnColdSharedEngine: the first query ever of a class
// that builds lazy state on the index (an equality selection sorts its
// region set's values once per instance) races on one shared engine from
// eight clients, each attempt hedged or failed over to a second route to
// the same engine. Every answer must be the direct facade's, and nothing
// may outlive the queries. Run under -race.
func TestHedgeAndFailoverOnColdSharedEngine(t *testing.T) {
	base := runtime.NumGoroutine()
	baseStreams := algebra.OpenStreams()
	const src = `SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`
	files := domainFiles("bibtex")
	direct := qof.BibTeX().NewCorpus()
	if err := direct.AddAll(files); err != nil {
		t.Fatal(err)
	}
	res, err := direct.ExecuteContext(t.Context(), src, qof.WithPartialResults())
	if err != nil || len(res.Hits) == 0 {
		t.Fatalf("direct facade: %d hits, %v; the query must select something", len(res.Hits), err)
	}
	want := string(expected(t, res, 1, 4, len(files)))

	for _, leg := range []struct {
		name, fault string
		raced       func(serve.MetricsBody) bool
	}{
		{"hedge", faultinject.ServeShard + "=delay:20ms", func(m serve.MetricsBody) bool { return m.HedgesWon > 0 }},
		{"failover", faultinject.ServeShard + "=error", func(m serve.MetricsBody) bool { return m.FailoversTotal > 0 }},
	} {
		// A high breaker threshold keeps every route open: with all primaries
		// faulted, breakers would otherwise open on both replicas of a group.
		srv := newServer(t, serve.Config{
			Shards: 4, Replicas: 2, HedgeAfter: time.Millisecond, BreakerThreshold: 1000,
		})
		if _, err := srv.Publish(files); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.Configure(leg.fault); err != nil {
			t.Fatal(err)
		}
		const clients = 8
		got := make([]string, clients)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				resp, err := srv.Execute(context.Background(), serve.Request{Query: src})
				if err != nil {
					got[c] = err.Error()
					return
				}
				got[c] = string(canonicalEnvelope(t, resp))
			}(c)
		}
		close(start)
		wg.Wait()
		faultinject.Reset()
		for c, g := range got {
			if g != want {
				t.Errorf("%s: client %d:\n  got  %s\n  want %s", leg.name, c, g, want)
			}
		}
		if m := srv.Metrics(); !leg.raced(m) {
			t.Errorf("%s: nothing raced: hedges won %d, failovers %d", leg.name, m.HedgesWon, m.FailoversTotal)
		}
	}
	waitGoroutines(t, base)
	deadline := time.Now().Add(5 * time.Second)
	for algebra.OpenStreams() != baseStreams {
		if time.Now().After(deadline) {
			t.Fatalf("open streams = %d, started with %d: a loser leaked its iterator", algebra.OpenStreams(), baseStreams)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// canonicalEnvelope renders a response as the HTTP layer would, elapsed_us
// zeroed.
func canonicalEnvelope(t *testing.T, resp *serve.Response) []byte {
	env := serve.NewEnvelope(resp)
	env.ElapsedUs = 0
	b, err := json.Marshal(env)
	if err != nil {
		t.Error(err)
	}
	return b
}

// BenchmarkPublish publishes 16 generated files of 1250 references on 4
// shards, with one replica per file and with two, and reports the live heap
// the published generation holds: a forced collection each side. Replicas
// route to one engine per file, so the two read alike.
func BenchmarkPublish(b *testing.B) {
	files := make(map[string]string)
	for _, d := range testutil.BibCorpusDocs(b, 16, 1250) {
		files[d.Name()] = d.Content()
	}
	for _, r := range []int{1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", r), func(b *testing.B) {
			var heap float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := liveHeapMB()
				b.StartTimer()
				srv, err := serve.New(serve.Config{
					Schema: qof.BibTeX(), Shards: 4, Replicas: r,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := srv.Publish(files); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				heap += liveHeapMB() - before
				runtime.KeepAlive(srv)
				b.StartTimer()
			}
			b.ReportMetric(heap/float64(b.N), "heap-MB/op")
		})
	}
}

// liveHeapMB is the live heap after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
