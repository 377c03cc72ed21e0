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
}
