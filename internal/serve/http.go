package serve

// The HTTP/JSON surface: POST|GET /query, GET /healthz, GET /metrics and
// (when Config.Reload is set) POST /reload. The envelope is deterministic
// — hits and degradations in global document order, no map iteration —
// so the same corpus produces byte-identical result bytes regardless of
// shard count (the elapsed_us field is the one timing-dependent value).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"qof"
)

// QueryRequest is the /query request body. GET requests map q, tenant,
// timeout_ms, max_regions and max_eval_bytes query parameters onto it.
type QueryRequest struct {
	Query        string `json:"query"`
	Tenant       string `json:"tenant,omitempty"`
	TimeoutMs    int    `json:"timeout_ms,omitempty"`
	MaxRegions   int    `json:"max_regions,omitempty"`
	MaxEvalBytes int    `json:"max_eval_bytes,omitempty"`
}

// Envelope is the /query response body.
type Envelope struct {
	Epoch     uint64          `json:"epoch"`
	Shards    int             `json:"shards"`
	Files     int             `json:"files"`
	Complete  bool            `json:"complete"`
	Hits      []EnvelopeHit   `json:"hits"`
	Degraded  []EnvelopeError `json:"degraded,omitempty"`
	Stats     EnvelopeStats   `json:"stats"`
	ElapsedUs int64           `json:"elapsed_us"`
}

// EnvelopeHit is one file's results: spans for whole-object selects,
// values for projections.
type EnvelopeHit struct {
	File   string         `json:"file"`
	Spans  []EnvelopeSpan `json:"spans,omitempty"`
	Values []string       `json:"values,omitempty"`
}

// EnvelopeSpan is one matched region.
type EnvelopeSpan struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// EnvelopeError attributes one degraded file to its shard.
type EnvelopeError struct {
	File  string `json:"file"`
	Shard int    `json:"shard"`
	Error string `json:"error"`
}

// EnvelopeStats aggregates execution statistics over the succeeded files.
type EnvelopeStats struct {
	Results     int  `json:"results"`
	Candidates  int  `json:"candidates"`
	Parsed      int  `json:"parsed"`
	ParsedBytes int  `json:"parsed_bytes"`
	Exact       bool `json:"exact"`
	FullScan    bool `json:"full_scan"`
}

// NewEnvelope converts a Response into its wire form. It is exported so
// the differential harness can build the expected bytes from the direct
// facade's results through the exact same conversion.
func NewEnvelope(r *Response) *Envelope {
	env := &Envelope{
		Epoch:    r.Epoch,
		Shards:   r.Shards,
		Files:    r.Files,
		Complete: r.Complete(),
		Hits:     make([]EnvelopeHit, 0, len(r.Hits)),
		Stats: EnvelopeStats{
			Results:     r.Stats.Results,
			Candidates:  r.Stats.Candidates,
			Parsed:      r.Stats.Parsed,
			ParsedBytes: r.Stats.ParsedBytes,
			Exact:       r.Stats.Exact,
			FullScan:    r.Stats.FullScan,
		},
		ElapsedUs: r.Elapsed.Microseconds(),
	}
	for _, h := range r.Hits {
		eh := EnvelopeHit{File: h.File, Values: h.Values}
		for _, sp := range h.Spans {
			eh.Spans = append(eh.Spans, EnvelopeSpan{Start: sp.Start, End: sp.End})
		}
		env.Hits = append(env.Hits, eh)
	}
	for _, d := range r.Degraded {
		env.Degraded = append(env.Degraded, EnvelopeError{File: d.File, Shard: d.Shard, Error: d.Err.Error()})
	}
	return env
}

// HitsFromCorpus converts direct-facade corpus results into Response form,
// assigning each degraded file the shard it would live on under n shards.
// The differential harness uses it to predict a sharded daemon's envelope
// from an unsharded facade run.
func HitsFromCorpus(res *qof.CorpusResults, n int) ([]qof.CorpusHit, []ShardFileError) {
	var degraded []ShardFileError
	for _, fe := range res.Degraded {
		degraded = append(degraded, ShardFileError{File: fe.File, Shard: ShardOf(fe.File, n), Err: fe.Err})
	}
	return res.Hits, degraded
}

// errorBody is every non-200 response.
type errorBody struct {
	Error string `json:"error"`
}

// retryAfterSeconds renders the shed backoff hint with jitter — uniform over
// [base, 1.5×base], rounded up to whole seconds — so clients shed together
// don't retry together and re-stampede the admission gate in lockstep.
func (s *Server) retryAfterSeconds() int {
	base := s.cfg.retryAfter()
	d := base + time.Duration(rand.Int64N(int64(base)/2+1))
	return int((d + time.Second - 1) / time.Second)
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cfg.Reload != nil {
		mux.HandleFunc("/reload", s.handleReload)
	}
	return mux
}

// bodies pools the buffers responses are encoded into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes the whole body first, so the response goes out with its
// Content-Length in one write instead of chunked in several.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bodies.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // no body type of this package holds a value encoding/json refuses
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) // a client gone mid-write is not the server's error
	bodies.Put(buf)
}

// MaxBodyBytes caps a POSTed request body: 1 MiB.
const MaxBodyBytes = 1 << 20

// decodeQueryRequest accepts POST (JSON body) and GET (query parameters),
// returning the HTTP status to use when it fails. A body over MaxBodyBytes
// is refused whole with 413, never decoded truncated.
func decodeQueryRequest(w http.ResponseWriter, r *http.Request) (QueryRequest, int, error) {
	var req QueryRequest
	switch r.Method {
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return req, http.StatusRequestEntityTooLarge, errors.New("request body over the 1 MiB limit")
		}
		if err != nil {
			return req, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return req, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Query = q.Get("q")
		req.Tenant = q.Get("tenant")
		for _, f := range []struct {
			key string
			dst *int
		}{
			{"timeout_ms", &req.TimeoutMs},
			{"max_regions", &req.MaxRegions},
			{"max_eval_bytes", &req.MaxEvalBytes},
		} {
			if v := q.Get(f.key); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil {
					return req, http.StatusBadRequest, fmt.Errorf("bad %s %q", f.key, v)
				}
				*f.dst = n
			}
		}
	default:
		return req, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method)
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Qofd-Tenant")
	}
	if req.Query == "" {
		return req, http.StatusBadRequest, errors.New("empty query")
	}
	return req, 0, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, status, err := decodeQueryRequest(w, r)
	if err != nil {
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	resp, err := s.Execute(r.Context(), Request{
		Query:        req.Query,
		Tenant:       req.Tenant,
		Timeout:      time.Duration(req.TimeoutMs) * time.Millisecond,
		MaxRegions:   req.MaxRegions,
		MaxEvalBytes: req.MaxEvalBytes,
	})
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, NewEnvelope(resp))
	case errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrNoCorpus):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, ErrBadQuery):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	default:
		// The query-level context ended (deadline, or the client went
		// away). The partial answer is dropped; the status says why.
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
	}
}

// ReplicaHealth is one engine shard's health in /healthz: its breaker
// state, failure run, and how many files it carries.
type ReplicaHealth struct {
	Shard        int    `json:"shard"`
	Breaker      string `json:"breaker"` // closed | open | half-open
	Failures     int    `json:"consecutive_failures"`
	ForcedOpen   bool   `json:"forced_open,omitempty"`
	PrimaryFiles int    `json:"primary_files"`
	ReplicaFiles int    `json:"replica_files"` // files routed here, primaries included
}

// healthBody is the /healthz response.
type healthBody struct {
	Status   string          `json:"status"`
	Epoch    uint64          `json:"epoch"`
	Shards   int             `json:"shards"`
	Files    int             `json:"files"`
	Replicas int             `json:"replicas,omitempty"`
	Shard    []ReplicaHealth `json:"shard_health,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	set := s.set.Load()
	if set.epoch == 0 {
		writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "no-corpus"})
		return
	}
	body := healthBody{
		Status: "ok", Epoch: set.epoch, Shards: len(set.shards), Files: len(set.files),
		Replicas: s.cfg.replicas(),
	}
	for i := range set.shards {
		state, fails, forced := s.breakers[i].snapshot()
		body.Shard = append(body.Shard, ReplicaHealth{
			Shard: i, Breaker: state, Failures: fails, ForcedOpen: forced,
			PrimaryFiles: len(set.byShard[i]), ReplicaFiles: len(set.onShard[i]),
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// MetricsBody is the /metrics response.
type MetricsBody struct {
	Epoch            uint64                   `json:"epoch"`
	Shards           int                      `json:"shards"`
	Files            int                      `json:"files"`
	QueriesTotal     uint64                   `json:"queries_total"`
	OkTotal          uint64                   `json:"ok_total"`
	ShedTotal        uint64                   `json:"shed_total"`
	BadQueryTotal    uint64                   `json:"bad_query_total"`
	CanceledTotal    uint64                   `json:"canceled_total"`
	DegradedTotal    uint64                   `json:"degraded_total"`
	Inflight         int64                    `json:"inflight"`
	Replicas         int                      `json:"replicas"`
	HedgesSent       uint64                   `json:"hedges_sent_total"`
	HedgesWon        uint64                   `json:"hedges_won_total"`
	FailoversTotal   uint64                   `json:"failovers_total"`
	FailedOpenTotal  uint64                   `json:"failed_open_total"`
	BreakerOpens     uint64                   `json:"breaker_opens_total"`
	BreakerHalfOpens uint64                   `json:"breaker_half_opens_total"`
	BreakerCloses    uint64                   `json:"breaker_closes_total"`
	HedgeDelayMs     float64                  `json:"hedge_delay_ms"`
	LatencyMs        map[string]float64       `json:"latency_ms"`
	Tenants          map[string]TenantMetrics `json:"tenants,omitempty"`
	MaxInflight      int                      `json:"max_inflight"`
	AdmittedInflight int                      `json:"admitted_inflight"`
}

// TenantMetrics are one tenant's counters.
type TenantMetrics struct {
	Queries   uint64 `json:"queries"`
	Shed      uint64 `json:"shed"`
	Hedges    uint64 `json:"hedges,omitempty"`
	Failovers uint64 `json:"failovers,omitempty"`
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() MetricsBody {
	m := MetricsBody{
		QueriesTotal:     s.met.queries.Load(),
		OkTotal:          s.met.ok.Load(),
		ShedTotal:        s.met.shed.Load(),
		BadQueryTotal:    s.met.badQuery.Load(),
		CanceledTotal:    s.met.canceled.Load(),
		DegradedTotal:    s.met.degraded.Load(),
		Inflight:         s.met.inflight.Load(),
		Replicas:         s.cfg.replicas(),
		HedgesSent:       s.met.hedgesSent.Load(),
		HedgesWon:        s.met.hedgesWon.Load(),
		FailoversTotal:   s.met.failovers.Load(),
		FailedOpenTotal:  s.met.failedOpen.Load(),
		BreakerOpens:     s.met.breakerOpens.Load(),
		BreakerHalfOpens: s.met.breakerHalfOpens.Load(),
		BreakerCloses:    s.met.breakerCloses.Load(),
		HedgeDelayMs:     float64(s.hedgeDelay()) / float64(time.Millisecond),
		LatencyMs: map[string]float64{
			"p50":  s.met.hist.quantile(0.50),
			"p99":  s.met.hist.quantile(0.99),
			"p999": s.met.hist.quantile(0.999),
		},
		MaxInflight:      s.cfg.maxInflight(),
		AdmittedInflight: s.adm.inflight(),
	}
	set := s.set.Load()
	m.Epoch, m.Shards, m.Files = set.epoch, len(set.shards), len(set.files)
	names := s.met.tenantNames()
	if len(names) > 0 {
		m.Tenants = make(map[string]TenantMetrics, len(names))
		for _, n := range names {
			tc := s.met.tenant(n)
			m.Tenants[n] = TenantMetrics{
				Queries:   tc.queries.Load(),
				Shed:      tc.shed.Load(),
				Hedges:    tc.hedges.Load(),
				Failovers: tc.failovers.Load(),
			}
		}
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	files, err := s.cfg.Reload(r.Context())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	epoch, built, err := s.publish(r.Context(), files)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		healthBody
		Built  int `json:"built"`  // files indexed for this epoch
		Reused int `json:"reused"` // files that kept their engine
	}{healthBody{Status: "ok", Epoch: epoch, Shards: s.cfg.shards(), Files: len(files)}, built, len(files) - built})
}
