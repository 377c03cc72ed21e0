package lru_test

import (
	"fmt"
	"sync"
	"testing"

	"qof/internal/faultinject"
	"qof/internal/lru"
)

// TestCacheEvictsLeastRecentlyUsed: a Get or an Add of a kept key makes it
// most recently used, and an Add past the capacity forgets the key used
// longest ago.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := lru.New[string, int](2, "", "")
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // b is now the oldest
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived: it was the least recently used")
	}
	if got := c.Add("a", 9); got != 1 { // a again: kept as it was, and now the newest
		t.Errorf("Add(a, 9) = %d; want the kept 1", got)
	}
	c.Add("d", 4)
	for key, want := range map[string]bool{"a": true, "c": false, "d": true} {
		if _, ok := c.Get(key); ok != want {
			t.Errorf("Get(%s) found = %v, want %v", key, ok, want)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestCacheCapacityBelowOne: a capacity below one keeps one key.
func TestCacheCapacityBelowOne(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		c := lru.New[int, int](capacity, "", "")
		c.Add(1, 1)
		c.Add(2, 2)
		if _, ok := c.Get(2); !ok || c.Len() != 1 {
			t.Errorf("capacity %d: Len = %d, newest kept = %v; want 1, true", capacity, c.Len(), ok)
		}
	}
}

// TestCacheConcurrentFirstSightings: goroutines that miss one key at once
// and each Add a value of their own all get back the one value kept first.
// Run it under -race.
func TestCacheConcurrentFirstSightings(t *testing.T) {
	c := lru.New[int, *int](64, "", "")
	const goroutines, keys = 8, 16
	got := make([][keys]*int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				v, ok := c.Get(k)
				if !ok {
					v = c.Add(k, new(int))
				}
				got[g][k] = v
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		kept, _ := c.Get(k)
		for g := range got {
			if got[g][k] != kept {
				t.Errorf("goroutine %d holds a value for key %d that the cache does not", g, k)
			}
		}
	}
}

// TestCacheFailpoints: the get failpoint turns a hit into a miss and the add
// failpoint keeps nothing, for the names both caches of the engine use; a
// cache built without names ignores them.
func TestCacheFailpoints(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	for _, names := range [][2]string{
		{faultinject.PlanCacheGet, faultinject.PlanCachePut},
		{faultinject.ResultCacheGet, faultinject.ResultCachePut},
	} {
		c := lru.New[string, int](4, names[0], names[1])
		bare := lru.New[string, int](4, "", "")
		c.Add("k", 1)
		bare.Add("k", 1)
		if err := faultinject.Configure(names[0] + "=error"); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get("k"); ok {
			t.Errorf("%s did not force a miss", names[0])
		}
		if _, ok := bare.Get("k"); !ok {
			t.Errorf("%s reached a cache that does not name it", names[0])
		}
		if err := faultinject.Configure(names[1] + "=error"); err != nil {
			t.Fatal(err)
		}
		if got := c.Add("new", 2); got != 2 {
			t.Errorf("%s: Add returned %d, want its own 2", names[1], got)
		}
		faultinject.Reset()
		if _, ok := c.Get("new"); ok || c.Len() != 1 {
			t.Errorf("%s: the dropped add was kept (Len %d)", names[1], c.Len())
		}
		if v, ok := c.Get("k"); !ok || v != 1 {
			t.Errorf("after the faults: Get(k) = %d, %v; want 1, true", v, ok)
		}
	}
}

// TestCacheHitAllocatesNothing: a hit is a lookup and a list move.
func TestCacheHitAllocatesNothing(t *testing.T) {
	c := lru.New[string, [4]int](8, faultinject.ResultCacheGet, faultinject.ResultCachePut)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%d", i)
		c.Add(keys[i], [4]int{i})
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			t.Fatal("miss")
		}
		i++
	}); n != 0 {
		t.Errorf("a hit allocates %v times, want 0", n)
	}
}
