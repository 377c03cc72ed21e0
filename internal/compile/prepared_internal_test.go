package compile

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"qof/internal/xsql"
)

// keyQuery is a distinct, already normalized query per i.
func keyQuery(i int) string {
	return fmt.Sprintf(`SELECT r FROM References r WHERE r.Key = "k%d"`, i)
}

func (pc *preparedCache) addQuery(t *testing.T, src string) *Prepared {
	t.Helper()
	return pc.put(src, &Prepared{Query: xsql.MustParse(src)})
}

func TestPlanCacheLRU(t *testing.T) {
	pc := newPreparedCache(2)
	a := pc.addQuery(t, keyQuery(0))
	pc.addQuery(t, keyQuery(1))
	if got := pc.get(keyQuery(0)); got != a {
		t.Fatal("text 0 missing after insert")
	}
	c := pc.addQuery(t, keyQuery(2)) // evicts 1, the least recently used
	if pc.get(keyQuery(1)) != nil {
		t.Error("text 1 should have been evicted")
	}
	if pc.get(keyQuery(0)) != a {
		t.Error("text 0 should survive: it was used after text 1")
	}
	if pc.get(keyQuery(2)) != c {
		t.Error("text 2 missing")
	}
	if pc.len() != 2 {
		t.Errorf("len = %d, want 2", pc.len())
	}
}

// TestPlanCacheRefresh: putting a text again leaves what is there in place
// and returns it, two texts may hold one Prepared, and an over-long text is
// not kept.
func TestPlanCacheRefresh(t *testing.T) {
	pc := newPreparedCache(4)
	first := pc.addQuery(t, keyQuery(0))
	if again := pc.addQuery(t, keyQuery(0)); again != first {
		t.Error("a second put of the text replaced what was kept")
	}
	spelled := "SELECT  r FROM References r WHERE r.Key = \"k0\""
	if pc.put(spelled, first) != first || pc.get(spelled) != first || pc.get(keyQuery(0)) != first {
		t.Error("two texts do not lead to the one Prepared")
	}
	if pc.len() != 2 || len(pc.m) != 2 {
		t.Errorf("len = %d with %d keys, want 2 and 2", pc.len(), len(pc.m))
	}
	long := keyQuery(1) + strings.Repeat(" ", maxRetainedSource)
	if p := pc.addQuery(t, long); p == nil || pc.get(long) != nil || pc.len() != 2 {
		t.Error("an over-long text was kept")
	}
}

// TestPlanCacheConcurrent hammers the cache from many goroutines; run under
// -race it proves get/put/len are safe to share.
func TestPlanCacheConcurrent(t *testing.T) {
	pc := newPreparedCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := keyQuery((g + i) % 16)
				p := pc.get(src)
				if p == nil {
					p = pc.put(src, &Prepared{Query: xsql.MustParse(src)})
				}
				if p.Query.String() != src {
					t.Errorf("%s answered with %s", src, p.Query)
				}
				pc.len()
			}
		}(g)
	}
	wg.Wait()
	if pc.len() > 8 {
		t.Errorf("len = %d exceeds capacity", pc.len())
	}
}
