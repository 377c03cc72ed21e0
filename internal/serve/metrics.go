package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// metrics is the server's observable state: monotonically increasing
// counters (atomics, updated on the hot path without locks), a per-tenant
// counter table, and a log-bucketed latency histogram good enough for
// p50/p99/p999 readouts on /metrics.
type metrics struct {
	queries  atomic.Uint64 // admitted queries
	ok       atomic.Uint64 // completed without interruption
	shed     atomic.Uint64 // rejected by admission control
	badQuery atomic.Uint64 // rejected by the parser
	canceled atomic.Uint64 // interrupted by client cancellation
	degraded atomic.Uint64 // completed with at least one degraded file
	inflight atomic.Int64  // admitted and still executing

	hist latencyHist

	mu      sync.Mutex
	tenants map[string]*tenantCounters // guarded by mu; values have atomic fields
}

// tenantCounters are one tenant's counters. The struct pointer is handed
// out under metrics.mu once and then updated through atomics, so the hot
// path takes the lock at most once per (tenant, query).
type tenantCounters struct {
	queries atomic.Uint64 // submissions (admitted or shed)
	shed    atomic.Uint64
}

func newMetrics() *metrics {
	return &metrics{tenants: make(map[string]*tenantCounters)}
}

// tenant returns the tenant's counter struct, creating it on first use.
func (m *metrics) tenant(name string) *tenantCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	tc := m.tenants[name]
	if tc == nil {
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

// tenantNames returns the known tenant names (for /metrics rendering).
func (m *metrics) tenantNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.tenants))
	for n := range m.tenants {
		names = append(names, n)
	}
	return names
}

// latencyHist is a lock-free histogram over power-of-two microsecond
// buckets: bucket i counts latencies in [2^i, 2^(i+1)) µs, the last bucket
// catches everything slower. Quantiles read as the upper bound of the
// bucket where the cumulative count crosses the target — at most 2×
// resolution error, plenty for saturation readouts.
type latencyHist struct {
	buckets [28]atomic.Uint64 // 2^27 µs ≈ 134 s in the top bucket
}

func (h *latencyHist) observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for us > 1 && i < len(h.buckets)-1 {
		us >>= 1
		i++
	}
	h.buckets[i].Add(1)
}

// quantile returns the approximate q-quantile (0 < q < 1) in milliseconds,
// or 0 when nothing was observed.
func (h *latencyHist) quantile(q float64) float64 {
	var total uint64
	var counts [len(h.buckets)]uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > target {
			return float64(uint64(1)<<(i+1)) / 1000.0 // bucket upper bound, µs → ms
		}
	}
	return float64(uint64(1)<<len(h.buckets)) / 1000.0
}
