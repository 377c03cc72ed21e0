package main

// The ladder: each sampled query replayed once per rung (see trace.go for
// the rungs), and the per-layer metrics derived from the spans.

import (
	"encoding/json"
	"errors"
	"math"
	"time"

	"qof"
	"qof/internal/algebra"
	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/optimizer"
	"qof/internal/region"
	"qof/internal/serve"
	"qof/internal/xsql"
)

// rungs holds each rung's duration in microseconds, one entry per sample.
type rungs struct {
	xsql, compile, optimizer, algebra, firstRow, grammar, cold, engine, file, corpus, serve, encode, http []float64
	engineSelf, fileSelf, serveTax, httpTax                                                               []float64
}

// run replays cfg.sc.ladder seeded positions of the workload's order. The
// sample is fixed by the seed, so every count below repeats exactly.
func (l *ladder) run(cfg *config, m *metricSet) error {
	var (
		r           rungs
		ast         algebra.Stats
		rewrites    int
		exactPlans  int
		parseNs     time.Duration // inside ParseAs only
		parseBytes  int
		parseCount  int
		parseAllocs uint64
		envBytes    int
	)
	// The drivers cycle through the order, so a position past its end is
	// a position in a later cycle.
	positions := sampleIndexes(cfg.seed, "ladder/"+l.w.name, max(len(l.w.order), cfg.sc.ladder), cfg.sc.ladder)
	seen := map[int]bool{}
	for n, pos := range positions {
		idx := l.w.order[pos%len(l.w.order)]
		src := l.w.pool[idx].src
		l.t.query = n
		if n == 0 || seen[idx] {
			// A cold engine must not have compiled this query before.
			for _, u := range l.units {
				u.cold = newColdEngine(l.cat, u.in)
			}
			seen = map[int]bool{}
		}
		seen[idx] = true
		var errs []error
		fail := func(err error) {
			if err != nil {
				errs = append(errs, err)
			}
		}

		var q *xsql.Query
		xs := l.t.call("xsql", func() {
			var err error
			q, err = xsql.Parse(src)
			fail(err)
		})
		if len(errs) > 0 {
			return errors.Join(errs...)
		}

		plans := make([]*compile.Plan, len(l.units))
		cs := l.t.call("compile", func() {
			for i, u := range l.units {
				var err error
				plans[i], err = l.cat.CompileStats(q, u.in, u.st)
				fail(err)
			}
		})
		if len(errs) > 0 {
			return errors.Join(errs...)
		}
		exact := true
		for _, p := range plans {
			for _, vp := range p.Vars {
				rewrites += len(vp.Rewrites)
				exact = exact && vp.Exact
			}
		}
		if exact {
			exactPlans++
		}
		// From outside, the optimizer sees the catalog's full RIG; Compile
		// projects it onto the indexed names first, which only matters on
		// a partial index.
		ops := l.t.call("optimizer", func() {
			for i, u := range l.units {
				for _, vp := range plans[i].Vars {
					if vp.Original != nil {
						e, _ := optimizer.OptimizeExpr(vp.Original, l.cat.RIG)
						optimizer.OrderOperands(e, u.st)
					}
				}
			}
		})

		cands := make([]region.Set, len(l.units))
		as := l.t.call("algebra", func() {
			for i, u := range l.units {
				if e := candidates(plans[i]); e != nil {
					var err error
					cands[i], err = u.ev.StreamEval(l.ctx, e, &ast, nil)
					fail(err)
				}
			}
		})
		start := time.Now()
		for i, u := range l.units {
			if e := candidates(plans[i]); e != nil {
				it, err := u.ev.Stream(l.ctx, e, nil, nil)
				if err == nil {
					_, _, err = it.Next()
					it.Close()
				}
				fail(err)
			}
		}
		fr := float64(time.Since(start)) / 1e3

		parsed := make([]int, len(l.units))
		ce := l.t.call("engine.cold", func() {
			for i, u := range l.units {
				res, err := u.cold.ExecuteContext(l.ctx, q, engine.Limits{})
				if err == nil {
					parsed[i] = res.Stats.Parsed
				}
				fail(err)
			}
		})

		// Phase 2 parses candidates in document order until the answer
		// is complete, so the regions it parsed are a prefix.
		mal0, _ := mallocs()
		var inParse time.Duration
		gs := l.t.call("grammar", func() {
			for i, u := range l.units {
				rs := cands[i].Regions()
				if len(rs) > parsed[i] {
					rs = rs[:parsed[i]]
				}
				nt, content := plans[i].Vars[0].NT, u.doc.Content()
				for _, reg := range rs {
					t0 := time.Now()
					node, err := l.cat.Grammar.ParseAs(u.doc, nt, reg.Start, reg.End)
					inParse += time.Since(t0)
					if err != nil {
						fail(err)
						continue
					}
					grammar.BuildValue(node, content)
					parseCount++
					parseBytes += reg.Len()
				}
			}
		})
		mal1, _ := mallocs()
		parseNs += inParse
		parseAllocs += mal1 - mal0

		es := l.t.call("engine", func() {
			for _, u := range l.units {
				_, err := u.warm.ExecuteContext(l.ctx, q, engine.Limits{})
				fail(err)
			}
		})

		results := make([]*qof.Results, len(l.units))
		fs := l.t.call("qof.file", func() {
			for i, u := range l.units {
				var err error
				results[i], err = u.file.QueryContext(l.ctx, src)
				fail(err)
			}
		})
		if len(errs) > 0 {
			return errors.Join(errs...)
		}
		var fp fingerprint
		for i, u := range l.units {
			fp.addResults(u.doc.Name(), results[i])
		}
		want := l.expected[idx]
		l.chk.add(src, matches(fp, want))

		var cres *qof.CorpusResults
		cr := l.t.call("qof.corpus", func() {
			var err error
			cres, err = l.corpus.ExecuteContext(l.ctx, src)
			fail(err)
		})
		if len(errs) > 0 {
			return errors.Join(errs...)
		}
		l.chk.add(src, matches(fingerprintHits(cres.Hits), want))

		var resp *serve.Response
		var serveErr error
		ss := l.t.call("serve", func() { resp, serveErr = l.srv.Execute(l.ctx, serve.Request{Query: src}) })
		var enc float64
		if serveErr == nil {
			if !resp.Complete() {
				serveErr = resp.DegradedError()
			} else {
				serveErr = matches(fingerprintHits(resp.Hits), want)
			}
			enc = l.t.call("serve.encode", func() {
				env := serve.NewEnvelope(resp)
				env.ElapsedUs = 0 // its digits vary from run to run; the byte count should not
				data, err := json.Marshal(env)
				fail(err)
				envBytes += len(data)
			})
		}
		l.chk.add(src, serveErr) // a shed or a degraded answer is a failed request, not a broken run

		var body []byte
		var httpErr error
		hs := l.t.call("http", func() { body, httpErr = httpQuery(l.ctx, l.client, l.url, l.bodies[idx]) })
		if httpErr == nil {
			httpErr = checkEnvelope(body, want)
		}
		l.chk.add(src, httpErr)
		if len(errs) > 0 {
			return errors.Join(errs...)
		}

		r.xsql, r.compile, r.optimizer = append(r.xsql, xs), append(r.compile, cs), append(r.optimizer, ops)
		r.algebra, r.firstRow, r.grammar = append(r.algebra, as), append(r.firstRow, fr), append(r.grammar, gs)
		r.cold, r.engine, r.file = append(r.cold, ce), append(r.engine, es), append(r.file, fs)
		r.corpus, r.serve, r.encode, r.http = append(r.corpus, cr), append(r.serve, ss), append(r.encode, enc), append(r.http, hs)
		if q.Limit == 0 {
			// Under a LIMIT the engine stops the stream early, while
			// the algebra rung drains it: the difference is no self time.
			r.engineSelf = append(r.engineSelf, ce-cs-as-gs)
		}
		r.fileSelf = append(r.fileSelf, fs-xs-es)
		r.serveTax = append(r.serveTax, ss-cr)
		r.httpTax = append(r.httpTax, hs-ss)
	}

	n := float64(len(positions))
	m.set("xsql.parse_us", median(r.xsql))
	m.set("compile.compile_us", median(r.compile))
	m.set("optimizer.optimize_us", median(r.optimizer))
	m.set("compile.rewrites_per_query", float64(rewrites)/n)
	m.set("compile.exact_plan_share", float64(exactPlans)/n)
	m.set("algebra.stream_us", median(r.algebra))
	m.set("algebra.first_row_us", median(r.firstRow))
	m.set("algebra.ops_per_query", float64(ast.Ops)/n)
	m.set("algebra.direct_ops_per_query", float64(ast.DirectOps)/n)
	m.set("algebra.regions_touched_per_query", float64(ast.RegionsTouched)/n)
	m.set("algebra.short_circuits_per_kq", 1000*float64(ast.ShortCircuits)/n)
	m.set("grammar.parse_as_mb_per_s", ratio(float64(parseBytes)/1e6, parseNs.Seconds()))
	m.set("grammar.parse_as_us_per_region", ratio(float64(parseNs)/1e3, float64(parseCount)))
	m.set("grammar.parse_allocs_per_region", ratio(float64(parseAllocs), float64(parseCount)))
	m.set("engine.execute_us", median(r.engine))
	m.set("engine.self_us", medianOr(r.engineSelf, 0))
	m.set("qof.file_self_us", median(r.fileSelf))
	m.set("qof.corpus_us", median(r.corpus))
	m.set("serve.execute_us", median(r.serve))
	m.set("serve.tax_us", median(r.serveTax))
	m.set("serve.http_tax_us", median(r.httpTax))
	m.set("serve.encode_us", median(r.encode))
	m.set("serve.envelope_bytes_per_query", float64(envBytes)/n)
	// The two rung medians the isolation checks divide by have no metric
	// name of their own.
	cfg.logf("# isolation: the grammar rung is %.0f us, %.0f%% of engine.execute_us; the http rung is %.0f us, of which serve.http_tax_us + |serve.tax_us| are %.0f%%",
		median(r.grammar), 100*ratio(median(r.grammar), median(r.engine)),
		median(r.http), 100*ratio(median(r.httpTax)+math.Abs(median(r.serveTax)), median(r.http)))
	return nil
}

// candidates is the plan's candidate expression; every pool query ranges
// over one variable. nil means the index offers no narrowing.
func candidates(p *compile.Plan) algebra.Expr {
	if len(p.Vars) == 0 {
		return nil
	}
	return p.Vars[0].Candidates
}
