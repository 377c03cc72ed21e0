package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// Failpoint configuration is process-global, so none of these tests may run
// in parallel; each resets on exit.

func TestDisabledIsNoop(t *testing.T) {
	Reset()
	if Active() {
		t.Fatal("Active() = true with no configuration")
	}
	for _, name := range Catalog() {
		if err := Hit(name); err != nil {
			t.Fatalf("Hit(%s) with injection disabled: %v", name, err)
		}
	}
	if got := String(); got != "<disabled>" {
		t.Fatalf("String() = %q, want <disabled>", got)
	}
}

func TestErrorKind(t *testing.T) {
	defer Reset()
	if err := Configure("persist.load=error"); err != nil {
		t.Fatal(err)
	}
	err := Hit(PersistLoad)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Hit(persist.load) = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), PersistLoad) {
		t.Fatalf("error %q does not name the failpoint", err)
	}
	// Unconfigured failpoints stay silent even while injection is active.
	if err := Hit(PersistSave); err != nil {
		t.Fatalf("Hit(persist.save) unconfigured: %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	defer Reset()
	if err := Configure("engine.phase2=panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		p := recover()
		ip, ok := p.(InjectedPanic)
		if !ok || ip.Name != Phase2 {
			t.Fatalf("recovered %v, want InjectedPanic{engine.phase2}", p)
		}
	}()
	Hit(Phase2)
	t.Fatal("Hit did not panic")
}

func TestDelayKind(t *testing.T) {
	defer Reset()
	if err := Configure("index.build=delay:30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Hit(IndexBuild); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delayed hit returned after %v, want >= 30ms", d)
	}
}

func TestNthHitTrigger(t *testing.T) {
	defer Reset()
	if err := Configure("resultcache.put=error@3"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := Hit(ResultCachePut)
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err = %v, want firing only on hit 3", i, err)
		}
	}
	if got := Hits(ResultCachePut); got != 5 {
		t.Fatalf("Hits = %d, want 5", got)
	}
}

func TestFromHitTrigger(t *testing.T) {
	defer Reset()
	if err := Configure("plancache.get=error@2+"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		err := Hit(PlanCacheGet)
		if (i >= 2) != (err != nil) {
			t.Fatalf("hit %d: err = %v, want firing from hit 2 on", i, err)
		}
	}
}

func TestProbabilityTriggerIsSeeded(t *testing.T) {
	defer Reset()
	run := func() []bool {
		if err := Configure("corpus.file=error%0.5/42"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 20)
		for i := range out {
			out[i] = Hit(CorpusFile) != nil
		}
		Reset()
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs between identically seeded runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("probability 0.5 fired %d/%d times; trigger not probabilistic", fired, len(a))
	}
}

func TestConfigureMultipleDirectives(t *testing.T) {
	defer Reset()
	if err := Configure("persist.save=error, engine.phase2=delay:1ms@2"); err != nil {
		t.Fatal(err)
	}
	if err := Hit(PersistSave); !errors.Is(err, ErrInjected) {
		t.Fatalf("persist.save: %v", err)
	}
	s := String()
	for _, want := range []string{"persist.save=error", "engine.phase2=delay:1ms@2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

func TestConfigureRejectsBadSpecs(t *testing.T) {
	defer Reset()
	for _, spec := range []string{
		"",                        // empty
		"noequals",                // missing kind
		"a=explode",               // unknown kind
		"a=delay:xyz",             // bad duration
		"a=error@0",               // zero trigger
		"a=error@x",               // non-numeric trigger
		"a=error%2/7",             // probability out of range
		"a=error%0.5",             // missing seed
		"persist.load=error,,b=?", // bad tail directive
	} {
		if err := Configure(spec); err == nil {
			t.Errorf("Configure(%q) accepted a bad spec", spec)
			Reset()
		}
	}
	if Active() {
		t.Fatal("failed Configure left injection active")
	}
}

func TestHitNInstanceSelector(t *testing.T) {
	defer Reset()
	// Only instance 2 is configured: other instances and plain Hit stay
	// silent, and the instance-scoped rule counts its own hits.
	if err := Configure("serve.shard#2=error"); err != nil {
		t.Fatal(err)
	}
	if err := HitN(context.Background(), ServeShard, 0); err != nil {
		t.Fatalf("HitN(serve.shard, 0): %v", err)
	}
	if err := HitN(context.Background(), ServeShard, 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("HitN(serve.shard, 2) = %v, want ErrInjected", err)
	}
	if err := Hit(ServeShard); err != nil {
		t.Fatalf("Hit(serve.shard) with only #2 configured: %v", err)
	}
	if got := Hits("serve.shard#2"); got != 1 {
		t.Fatalf("Hits(serve.shard#2) = %d, want 1", got)
	}
}

func TestHitNPlainRuleCoversAllInstances(t *testing.T) {
	defer Reset()
	if err := Configure("serve.replica=error"); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if err := HitN(context.Background(), ServeReplica, n); !errors.Is(err, ErrInjected) {
			t.Fatalf("HitN(serve.replica, %d) = %v, want ErrInjected", n, err)
		}
	}
	// n < 0 skips the instance selector entirely.
	if err := HitN(context.Background(), ServeHedge, -1); err != nil {
		t.Fatalf("HitN(serve.hedge, -1) unconfigured: %v", err)
	}
	if got := Hits(ServeReplica); got != 3 {
		t.Fatalf("Hits(serve.replica) = %d, want 3", got)
	}
}

// TestHitNDelayEndsWithContext: a delay stalls HitN only until its context
// ends, so a canceled attempt stops stalling at once.
func TestHitNDelayEndsWithContext(t *testing.T) {
	defer Reset()
	if err := Configure("serve.shard#1=delay:10s"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := HitN(ctx, ServeShard, 1); err != nil {
		t.Fatalf("HitN under a 20ms deadline = %v, want nil: a delay never fails", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the delay outlived its context by %v", d)
	}
}

func TestCatalogIsStable(t *testing.T) {
	names := Catalog()
	if len(names) != 13 {
		t.Fatalf("Catalog has %d names, want 13", len(names))
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate catalog name %s", n)
		}
		seen[n] = true
	}
}
