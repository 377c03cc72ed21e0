package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunJSONBench runs the quick benchmark end to end and checks the
// report's shape: every domain present, both passes measured, and the
// cached pass actually using the result cache.
func TestRunJSONBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := runJSONBench(path, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Quick || r.Rounds == 0 || r.Queries == 0 {
		t.Errorf("header wrong: %+v", r)
	}
	if len(r.Domains) != 3 {
		t.Fatalf("expected 3 domains, got %d", len(r.Domains))
	}
	for _, d := range r.Domains {
		if d.Baseline.OpsPerSec <= 0 || d.Cached.OpsPerSec <= 0 {
			t.Errorf("%s: zero throughput: %+v", d.Name, d)
		}
		if d.Baseline.ResultCacheHitRate != 0 {
			t.Errorf("%s: baseline pass used the result cache", d.Name)
		}
		if d.Cached.ResultCacheHitRate == 0 {
			t.Errorf("%s: cached pass never hit the result cache", d.Name)
		}
		if d.Baseline.PlanCacheHitRate == 0 {
			t.Errorf("%s: repeated workload never hit the plan cache", d.Name)
		}
		if d.Speedup <= 0 {
			t.Errorf("%s: speedup not computed", d.Name)
		}
		if d.Baseline.PeakBytes <= 0 {
			t.Errorf("%s: baseline pass recorded no peak bytes", d.Name)
		}
		if d.LimitKOpsSec <= 0 {
			t.Errorf("%s: LIMIT workload not measured", d.Name)
		}
	}
	// The serving storm: every submission accounted for, shedding engaged,
	// some queries served, bounded tail latency, nothing leaked.
	sv := r.Serving
	if sv.Ok+sv.Shed != sv.Submitted || sv.Submitted != sv.Clients*2 {
		t.Errorf("serving books don't balance: %+v", sv)
	}
	if sv.Shed == 0 {
		t.Errorf("serving storm never shed at %dx oversubscription: %+v", sv.Clients/sv.MaxInflight, sv)
	}
	if sv.Ok == 0 || sv.QPS <= 0 {
		t.Errorf("serving storm served nothing: %+v", sv)
	}
	if sv.P999Ms <= 0 || sv.P999Ms > 30000 {
		t.Errorf("serving p999 %v ms unbounded: %+v", sv.P999Ms, sv)
	}
	if sv.P50Ms > sv.P999Ms {
		t.Errorf("serving quantiles inverted: %+v", sv)
	}
	if sv.GoroutineLeak != 0 {
		t.Errorf("serving storm leaked %d goroutines", sv.GoroutineLeak)
	}
	// The tail section: hedging must actually race (hedges sent and won).
	// How far it collapses the slow-shard tail is a wall-clock ratio, read
	// off the committed report and not asserted under go test.
	tl := r.Tail
	if tl.Queries == 0 || tl.Replicas != 2 {
		t.Errorf("tail header wrong: %+v", tl)
	}
	if tl.Unhedged.P999Ms <= 0 || tl.Hedged.P999Ms <= 0 {
		t.Errorf("tail legs not measured: %+v", tl)
	}
	if tl.HedgesSent == 0 || tl.HedgesWon == 0 {
		t.Errorf("hedged leg never raced: sent=%d won=%d", tl.HedgesSent, tl.HedgesWon)
	}
	if tl.P999Ratio <= 0 {
		t.Errorf("tail p999 ratio not computed: %+v", tl)
	}
}
