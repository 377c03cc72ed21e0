package serve_test

// Fault suite for the serving layer: a faulted, slow or deadlined file must
// degrade the answer to a partial one with correct file attribution — never
// fail or hang the query — and the daemon must serve complete answers again
// the moment the fault clears.

import (
	"context"
	"errors"
	"testing"
	"time"

	"qof"
	"qof/internal/faultinject"
	"qof/internal/serve"
)

// TestFileFaultDegrades injects error and panic faults into exactly one
// file's evaluation (trigger @1: the first file to reach the failpoint) and
// asserts the partial-answer contract.
func TestFileFaultDegrades(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(6)); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"error", "panic"} {
		if err := faultinject.Configure(faultinject.CorpusFile + "=" + kind + "@1"); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery})
		faultinject.Reset()
		if err != nil {
			t.Fatalf("%s: a file fault failed the query outright: %v", kind, err)
		}
		want := error(faultinject.ErrInjected)
		if kind == "panic" {
			want = qof.ErrInternal
		}
		if len(resp.Degraded) != 1 || !errors.Is(resp.Degraded[0].Err, want) {
			t.Fatalf("%s: degraded %v, want one file failing with %v", kind, resp.DegradedError(), want)
		}
		if len(resp.Hits) != 5 {
			t.Errorf("%s: %d hits beside one degraded file, want 5", kind, len(resp.Hits))
		}
		for _, h := range resp.Hits {
			if h.File == resp.Degraded[0].File {
				t.Errorf("%s: %s both answered and degraded", kind, h.File)
			}
		}
		if err := resp.DegradedError(); !errors.Is(err, want) {
			t.Errorf("%s: DegradedError = %v, want %v", kind, err, want)
		}
		// Fault cleared: the very next query is complete.
		resp, err = srv.Execute(t.Context(), serve.Request{Query: changQuery})
		if err != nil || !resp.Complete() || len(resp.Hits) != 6 {
			t.Fatalf("%s: post-fault query: hits=%d err=%v degraded=%v",
				kind, len(resp.Hits), err, resp.DegradedError())
		}
	}
}

// TestCorpusPanicDegradesEveryFile: a panic the facade recovers outside any
// one file's evaluation — here in the plan-cache lookup of the query the
// validation has just found prepared — leaves the corpus no result, and
// every file degrades with ErrInternal instead of the query failing.
func TestCorpusPanicDegradesEveryFile(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery}); err != nil { // prepares it
		t.Fatal(err)
	}
	// Hit 1 is the validation's lookup, hit 2 the corpus execution's.
	if err := faultinject.Configure(faultinject.PlanCacheGet + "=panic@2"); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery})
	faultinject.Reset()
	if err != nil {
		t.Fatalf("a recovered panic failed the query: %v", err)
	}
	if len(resp.Hits) != 0 || len(resp.Degraded) != 3 {
		t.Fatalf("hits %d, degraded %d, want 0 and 3", len(resp.Hits), len(resp.Degraded))
	}
	for _, d := range resp.Degraded {
		if !errors.Is(d.Err, qof.ErrInternal) {
			t.Errorf("%s degraded with %v, want ErrInternal", d.File, d.Err)
		}
	}
}

// TestFileDelayFault: a slow file under no deadline just makes the query
// slower — the answer stays complete.
func TestFileDelayFault(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(4)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure(faultinject.CorpusFile + "=delay:30ms"); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery})
	faultinject.Reset()
	if err != nil || !resp.Complete() || len(resp.Hits) != 4 {
		t.Fatalf("delayed file: hits=%d err=%v degraded=%v", len(resp.Hits), err, resp.DegradedError())
	}
}

// TestFileDeadlineDegrades: files that miss Config.FileTimeout degrade with
// context.DeadlineExceeded while the query-level call still succeeds — a
// slow file is a partial answer, not a failed or interrupted query.
func TestFileDeadlineDegrades(t *testing.T) {
	srv := newServer(t, serve.Config{FileTimeout: time.Nanosecond}) // expires before any file's first poll
	if _, err := srv.Publish(sampleFiles(4)); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery})
	if err != nil {
		t.Fatalf("a file deadline interrupted the query: %v", err)
	}
	if len(resp.Degraded) != 4 || len(resp.Hits) != 0 {
		t.Fatalf("hits %d, degraded %d under a 1ns file deadline, want 0 and 4", len(resp.Hits), len(resp.Degraded))
	}
	for _, d := range resp.Degraded {
		if !errors.Is(d.Err, context.DeadlineExceeded) {
			t.Errorf("%s degraded with %v, want DeadlineExceeded", d.File, d.Err)
		}
	}
	if m := srv.Metrics(); m.DegradedTotal != 1 || m.OkTotal != 1 {
		t.Errorf("degraded_total=%d ok_total=%d, want 1/1", m.DegradedTotal, m.OkTotal)
	}
}

// TestQueryDeadlineInterrupts: unlike a file deadline, the query-level
// deadline expiring reports interruption to the caller (HTTP: 504), with
// the partial answer attached.
func TestQueryDeadlineInterrupts(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(4)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure(faultinject.CorpusFile + "=delay:80ms"); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery, Timeout: 20 * time.Millisecond})
	faultinject.Reset()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if resp == nil {
		t.Fatal("interrupted query returned no partial response")
	}
	resp, err = srv.Execute(t.Context(), serve.Request{Query: changQuery})
	if err != nil || !resp.Complete() {
		t.Fatalf("post-interrupt query: err=%v degraded=%v", err, resp.DegradedError())
	}
}
