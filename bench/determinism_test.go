package main

import (
	"reflect"
	"testing"
)

// TestSameSeedSameInputs: inputs are a pure function of the seed — no
// time.Now, no map order — and another seed gives another pool.
func TestSameSeedSameInputs(t *testing.T) {
	sc := scales["smoke"]
	for _, name := range workloadNames {
		a, err := newWorkload(name, sc, 7, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			b, err := newWorkload(name, sc, 7, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: the same seed gave different corpora, pools or schedules", name)
			}
		}
		other, err := newWorkload(name, sc, 8, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.pool, other.pool) {
			t.Errorf("%s: seeds 7 and 8 gave the same pool", name)
		}
		if a.docs[0].content == other.docs[0].content {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus", name)
		}
		if len(a.order) == 0 || len(a.pool) == 0 {
			t.Errorf("%s: empty pool or order", name)
		}
		for _, i := range a.order {
			if i < 0 || i >= len(a.pool) {
				t.Fatalf("%s: order names pool index %d of %d", name, i, len(a.pool))
			}
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w, err := newWorkload("daemon_open", scales["smoke"], 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.due) != 200 || len(w.order) != len(w.due) {
		t.Fatalf("2 s at 100 q/s: %d arrivals, %d draws", len(w.due), len(w.order))
	}
	for i := 1; i < len(w.due); i++ {
		if w.due[i] < w.due[i-1] {
			t.Fatal("arrival offsets are not sorted")
		}
	}
	if last := w.due[len(w.due)-1].Seconds(); last >= 2 {
		t.Errorf("last arrival at %v s, outside the window", last)
	}
	// A closed-loop workload borrows the same generator for its traced
	// HTTP leg.
	h, err := newWorkload("hot_repeat", scales["smoke"], 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	order, due := h.openSchedule(scales["smoke"], 3, 0.5)
	if len(order) != 50 || len(due) != 50 {
		t.Errorf("0.5 s at 100 q/s: %d sends", len(order))
	}
	order, due = w.openSchedule(scales["smoke"], 3, 0.5)
	if len(order) != len(due) || len(due) == 0 || due[len(due)-1].Seconds() >= 0.5 {
		t.Errorf("daemon_open's traced window: %d sends", len(due))
	}
}

// TestFullScalePoolSizes pins the pool sizes the workloads are designed
// around (the cache capacities they must exceed or fit), without
// generating the full corpora.
func TestFullScalePoolSizes(t *testing.T) {
	sc := scales["full"]
	sc.refs, sc.daemonRefs = 10, 10
	for name, want := range map[string]int{"phase1_cold": 1220, "phase2_parse": 122, "hot_repeat": 40, "daemon_open": 376} {
		w, err := newWorkload(name, sc, 1994, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.pool) != want {
			t.Errorf("%s: pool of %d, want %d", name, len(w.pool), want)
		}
		distinct := map[string]bool{}
		for _, q := range w.pool {
			distinct[q.src] = true
		}
		if len(distinct) != len(w.pool) {
			t.Errorf("%s: %d distinct queries in a pool of %d", name, len(distinct), len(w.pool))
		}
	}
}

func TestFingerprint(t *testing.T) {
	var a, b, c fingerprint
	a.addString("ab")
	a.addString("c")
	b.addString("a")
	b.addString("bc")
	if a == b {
		t.Error(`("ab","c") and ("a","bc") share a fingerprint`)
	}
	if c != (fingerprint{}) || c.String() != "0:0" {
		t.Errorf("empty fingerprint is %v", c)
	}
	if subSeed(1, "x") == subSeed(1, "y") || subSeed(1, "x") == subSeed(2, "x") || subSeed(1, "x") < 0 {
		t.Error("subSeed does not separate labels and seeds")
	}
}
