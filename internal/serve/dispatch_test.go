package serve_test

// The dispatch suite: a query's groups run on the goroutine that executes
// it and on the process's helpers, and a hedge is the only goroutine a
// query may start.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qof"
	"qof/internal/faultinject"
	"qof/internal/qgen"
	"qof/internal/serve"
)

// settleGoroutines polls until the goroutine count is back at base exactly:
// hedge goroutines unwind after their query returns, and nothing else may
// outlive it.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d running, started with %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPeakGoroutinesBounded: N clients querying a 16-file, 4-shard, R=2
// server at once never run more goroutines than the clients themselves,
// the helpers and a few the test and the runtime own. Dispatch starts none:
// groups run on the client's goroutine or on a helper, every primary
// attempt runs on its group's goroutine, and the armed hedge timers (which
// never fire here) cost no goroutine either.
func TestPeakGoroutinesBounded(t *testing.T) {
	files := make(map[string]string, 16)
	for i := 0; i < 16; i++ {
		d := qgen.BibTeX(int64(100 + i))
		files[fmt.Sprintf("f%02d.bib", i)] = d.Doc.Content()
	}
	srv := newServer(t, serve.Config{Shards: 4, Replicas: 2, HedgeAfter: time.Minute})
	if _, err := srv.Publish(files); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		changQuery,
		`SELECT r.Key FROM References r WHERE r.Title CONTAINS "data"`,
		`SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = "Chang"`,
	}
	const clients, perClient = 16, 20
	var (
		stop sync.WaitGroup
		done atomic.Bool
		peak atomic.Int64
	)
	stop.Add(1)
	go func() { // the sampler, counted in base
		defer stop.Done()
		for !done.Load() {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := queries[(c+i)%len(queries)]
				if _, err := srv.Execute(t.Context(), serve.Request{Query: q}); err != nil {
					t.Errorf("client %d: %s: %v", c, q, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	done.Store(true)
	stop.Wait()
	// The helpers started with the process and are in base already; the
	// bound counts them again, as GOMAXPROCS, in case a test grew them.
	const slack = 4
	if bound := base + clients + runtime.GOMAXPROCS(0) + slack; int(peak.Load()) > bound {
		t.Errorf("peak %d goroutines under %d clients, bound %d (base %d)", peak.Load(), clients, bound, base)
	}
	if m := srv.Metrics(); m.HedgesSent != 0 {
		t.Errorf("%d hedges sent under a one-minute hedge delay", m.HedgesSent)
	}
}

// TestHedgeBeatsStalledInlinePrimary: the primary attempt runs on the
// goroutine dispatching its group, so a stalled primary must not hold the
// answer up. With shard k's primaries stalled 200ms and a 1ms hedge, the
// hedge answers, cancels the stalled attempt — whose delay honours its
// context — and the query returns in well under the stall with the direct
// facade's envelope. The canceled primary is not charged to shard k's
// breaker, and every goroutine the query started is gone afterwards.
func TestHedgeBeatsStalledInlinePrimary(t *testing.T) {
	defer faultinject.Reset()
	files := sampleFiles(8)
	schema := qof.BibTeX()
	direct := schema.NewCorpus()
	if err := direct.AddAll(files); err != nil {
		t.Fatal(err)
	}
	res, err := direct.ExecuteContext(t.Context(), changQuery, qof.WithPartialResults())
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	srv := newServer(t, serve.Config{
		Schema: schema, Shards: shards, Replicas: 2, HedgeAfter: time.Millisecond, BreakerThreshold: 1,
	})
	if _, err := srv.Publish(files); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery}); err != nil { // warm the caches
		t.Fatal(err)
	}
	k := serve.ShardOf("doc-00.bib", shards)
	point := fmt.Sprintf("%s#%d", faultinject.ServeShard, k)
	if err := faultinject.Configure(point + "=delay:200ms"); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	start := time.Now()
	resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery})
	elapsed := time.Since(start)
	stalled := faultinject.Hits(point)
	faultinject.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if stalled == 0 {
		t.Fatalf("%s was never reached: no primary on shard %d", point, k)
	}
	if elapsed >= 50*time.Millisecond {
		t.Errorf("the query took %v behind a 200ms stall and a 1ms hedge", elapsed)
	}
	env := serve.NewEnvelope(resp)
	env.ElapsedUs = 0
	got, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if want := expected(t, res, srv.Epoch(), shards, len(files)); !bytes.Equal(got, want) {
		t.Errorf("the hedged envelope diverges from the direct facade:\n  got  %s\n  want %s", got, want)
	}
	if m := srv.Metrics(); m.HedgesWon == 0 {
		t.Errorf("no hedge won: %+v", m)
	}
	if st := srv.BreakerState(k); st != "closed" {
		t.Errorf("shard %d's breaker is %s: the canceled primary was charged", k, st)
	}
	settleGoroutines(t, base)
	// The shard still answers as the primary once the stall is gone.
	if resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery}); err != nil || !resp.Complete() {
		t.Fatalf("after the stall: %v", err)
	}
}
