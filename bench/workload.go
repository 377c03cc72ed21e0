package main

// Seeded inputs: corpora, query pools and request schedules. Everything
// here is a pure function of (scale, seed, seconds); the program under test
// receives only the generated text and query strings.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"qof/internal/bibtex"
)

// scale fixes every size of a run. "full" is the benchmark the driver
// runs; "smoke" is the tier-1 test's, small enough for `go test`.
type scale struct {
	name          string
	refs          int     // references in the single-file corpus
	daemonFiles   int     // files served by the daemon workload
	daemonRefs    int     // references per daemon file
	oracleRefs    int     // references in the same-seed full-scan oracle corpus
	oracleQueries int     // pool queries checked against scan.FullScan per run; 0 = all
	words         int     // words per CONTAINS template in the phase1_cold pool
	names         int     // names per Last_Name template in the phase1_cold pool
	drains        int     // wide NOT-CONTAINS drains in the phase1_cold pool
	parseWords    int     // words in the phase2_parse pool (two templates each)
	hotEditors    int     // "Editors = n LIMIT 10" queries in the hot_repeat pool
	daemonNames   int     // names in the daemon_open pool (two templates each)
	setups        int     // builds whose median is setup_s
	rate          float64 // daemon_open arrival rate, queries per second
	ladder        int     // queries replayed rung by rung in a traced run
	replay        int     // least number of queries in the traced replay
	fullScans     int     // sampled queries timed against scan.FullScan
	openSeconds   float64 // open-loop window of a traced run
}

var scales = map[string]scale{
	"full": {
		name: "full", refs: 20000, daemonFiles: 16, daemonRefs: 1250,
		oracleRefs: 500, oracleQueries: 60,
		words: 300, names: 200, drains: 20, parseWords: 60, hotEditors: 32, daemonNames: 188,
		setups: 5, rate: 100, ladder: 200, replay: 1000, fullScans: 3, openSeconds: 4,
	},
	"smoke": {
		name: "smoke", refs: 200, daemonFiles: 3, daemonRefs: 70,
		oracleRefs: 60, oracleQueries: 0,
		words: 8, names: 6, drains: 2, parseWords: 4, hotEditors: 4, daemonNames: 5,
		setups: 2, rate: 100, ladder: 12, replay: 60, fullScans: 2, openSeconds: 0.3,
	},
}

// The generator's vocabulary and last names (internal/bibtex/generate.go
// keeps them unexported). A word or name the corpus happens not to contain
// only makes an empty answer, which the oracle checks like any other.
func vocabulary() []string {
	v := []string{
		"the", "of", "a", "and", "to", "in", "for", "with", "on", "system",
		"algorithm", "differential", "equation", "automatic", "series",
		"taylor", "convergence", "radius", "program", "solve", "method",
		"numerical", "analysis", "error", "bound", "order", "point",
		"derivative", "function", "interval", "computation", "fortran",
	}
	for i := 0; i < 400; i++ {
		v = append(v, fmt.Sprintf("term%03d", i))
	}
	return v
}

func lastNames() []string {
	n := []string{
		"Corliss", "Griewank", "Aberth", "Gupta", "Rall", "Moore", "Tompa",
		"Salminen", "Gonnet", "Abiteboul", "Cluet", "Kifer", "Sagiv",
		"Mendelzon", "Hull", "Vianu", "Ullman", "Codd", "Gray", "Stonebraker",
	}
	for i := 0; i < 180; i++ {
		n = append(n, fmt.Sprintf("Author%03d", i))
	}
	return n
}

// target is the generator's controlled-selectivity name; every pool that
// filters on a last name includes it, so generator ground truth applies.
const target = "Chang"

// subSeed derives an independent stream for one purpose from the run seed
// (splitmix64 over the seed and an FNV-1a hash of the label).
func subSeed(seed int64, label string) int64 {
	var f fingerprint
	f.addString(label)
	x := uint64(seed) + f.Hash*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// doc is one generated file and the generator's ground truth about it.
type doc struct {
	name, content string
	truth         bibtex.Stats
}

func genDocs(seed int64, files, refs int) []doc {
	out := make([]doc, files)
	for i := range out {
		cfg := bibtex.DefaultConfig(refs)
		cfg.Seed = subSeed(seed, fmt.Sprintf("corpus/%d", i))
		out[i].name = fmt.Sprintf("refs%02d.bib", i)
		out[i].content, out[i].truth = bibtex.Generate(cfg)
	}
	return out
}

func docBytes(docs []doc) int {
	n := 0
	for _, d := range docs {
		n += len(d.content)
	}
	return n
}

// truthKind says which generator count is a query's answer size.
type truthKind int

const (
	truthNone truthKind = iota
	truthAuthor
	truthEditor
	truthEither
)

// query is one pool entry. rows is the answer size the generator's ground
// truth implies over the workload's files, or -1 when it implies none.
type query struct {
	src  string
	rows int
}

func newQuery(docs []doc, kind truthKind, limit int, format string, args ...any) query {
	q := query{src: fmt.Sprintf(format, args...), rows: -1}
	if kind == truthNone {
		return q
	}
	q.rows = 0
	for _, d := range docs {
		n := 0
		switch kind {
		case truthAuthor:
			n = d.truth.TargetAsAuthor
		case truthEditor:
			n = d.truth.TargetAsEditor
		case truthEither:
			n = d.truth.TargetAsEither
		}
		if limit > 0 && n > limit { // LIMIT applies per file
			n = limit
		}
		q.rows += n
	}
	return q
}

// kindFor gives the ground-truth kind a name admits: only the target name
// has controlled counts.
func kindFor(name string, k truthKind) truthKind {
	if name == target {
		return k
	}
	return truthNone
}

// workload is one set of inputs and the way they are driven.
type workload struct {
	name, why string
	docs      []doc    // sorted by name
	regions   []string // the indexing choice; nil indexes every non-terminal
	indexOnly bool     // set-up asserts that no pool query parses anything
	pool      []query
	order     []int           // pool indexes in sending order; drivers cycle through it
	due       []time.Duration // open loop only: send offset of order[i]
}

var workloadWhy = map[string]string{
	"phase1_cold":  "1220 distinct index-only projections sent round-robin over a 20k-ref file: every cache misses, so parse+compile+index algebra do all the work and nothing is parsed",
	"phase2_parse": "122 selects on the paper's partial index (Reference, Key, Last_Name) that it cannot decide: ~1000 candidates per query are parsed and filtered; phase 1 is one cheap selection no cache keeps",
	"hot_repeat":   "40 queries drawn by Zipf(1.1) on the full index: every cache hits, so fixed per-query overhead and LIMIT early termination carry it",
	"daemon_open":  "376 cheap queries sent open loop at 100 q/s over HTTP to a real qofd child (16 files, 4 shards x2 replicas): decode, admission, scatter, hedging, gather and encode are a large share",
}

var workloadNames = []string{"phase1_cold", "phase2_parse", "hot_repeat", "daemon_open"}

const (
	fromRefs = "FROM References r WHERE"
	// The region names the bench refers to; together they are the paper's
	// Section 6.1 partial index.
	regionReference = "Reference"
	regionKey       = "Key"
	regionLastName  = "Last_Name"
)

// pickNames returns n seeded last names, the target always among them.
func pickNames(rng *rand.Rand, n int) []string {
	all := lastNames()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := append([]string{target}, all...)
	if n < len(out) {
		out = out[:n]
	}
	return out
}

func pickWords(rng *rand.Rand, n int) []string {
	all := vocabulary()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// roundRobin sends the pool in order, over and over.
func roundRobin(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// zipfOrder draws n pool indexes with P(k) ∝ 1/(1+k)^1.1: pool position is
// popularity rank.
func zipfOrder(rng *rand.Rand, pool, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// poissonDue draws the arrival offsets of a Poisson process of the given
// rate over the window, conditioned on its expected count: rate*seconds
// arrivals, independently uniform over the window, sorted. Fixing the count
// keeps the offered load identical across seeds; the gaps stay exponential.
func poissonDue(rng *rand.Rand, rate, seconds float64) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*seconds)))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// zipfDraws is how many Zipf draws a closed-loop workload precomputes; the
// driver cycles through them, so the sequence is the same on every commit
// however many queries a window fits.
const zipfDraws = 1 << 14

// newWorkload builds one workload's inputs. seconds sizes the open-loop
// schedule; closed-loop workloads ignore it.
func newWorkload(name string, sc scale, seed int64, seconds float64) (*workload, error) {
	w := &workload{name: name, why: workloadWhy[name]}
	rng := rand.New(rand.NewSource(subSeed(seed, "pool/"+name)))
	single := func() []doc { return genDocs(seed, 1, sc.refs) }
	switch name {
	case "phase1_cold":
		w.docs = single()
		w.indexOnly = true
		for _, x := range pickWords(rng, sc.words) {
			w.add(truthNone, 0, `SELECT r.Key %s r.Abstract CONTAINS %q`, fromRefs, x)
		}
		for _, x := range pickWords(rng, sc.words) {
			w.add(truthNone, 0, `SELECT r.Key %s r.Keywords CONTAINS %q AND r.Abstract CONTAINS "system"`, fromRefs, x)
		}
		for _, n := range pickNames(rng, sc.names) {
			w.add(kindFor(n, truthAuthor), 0, `SELECT r.Key %s r.Authors.Name.Last_Name = %q`, fromRefs, n)
			w.add(kindFor(n, truthEither), 0, `SELECT r.Key %s r.*X.Last_Name = %q`, fromRefs, n)
			w.add(truthNone, 0, `SELECT r.Authors.Name.Last_Name %s r.Editors.Name.Last_Name = %q`, fromRefs, n)
		}
		// Words 8..39 of the skewed vocabulary each occur in roughly a
		// tenth to a quarter of the abstracts, so NOT CONTAINS drains
		// most of the file: the full-drain use of the stream executor.
		common := vocabulary()[8:40]
		rng.Shuffle(len(common), func(i, j int) { common[i], common[j] = common[j], common[i] })
		for _, x := range common[:sc.drains] {
			w.add(truthNone, 0, `SELECT r.Key %s NOT r.Abstract CONTAINS %q`, fromRefs, x)
		}
		rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
		w.order = roundRobin(len(w.pool))
	case "phase2_parse":
		w.docs = single()
		w.regions = []string{regionReference, regionKey, regionLastName}
		// Abstract and Keywords are not indexed here, so the candidates
		// of a CONTAINS are every reference with the word anywhere in it —
		// one word-index selection, too cheap for the result cache to keep —
		// and each is parsed to see where the word is. The rarer half of
		// the vocabulary gives about a thousand candidates per query. The
		// two selects on the target name take the Last_Name index and tie
		// this path to generator ground truth; their candidate set is the
		// only one the result cache ever holds.
		rare := vocabulary()[len(vocabulary())/2:]
		rng.Shuffle(len(rare), func(i, j int) { rare[i], rare[j] = rare[j], rare[i] })
		for _, x := range rare[:sc.parseWords] {
			w.add(truthNone, 0, `SELECT r %s r.Abstract CONTAINS %q`, fromRefs, x)
			w.add(truthNone, 0, `SELECT r.Title %s r.Keywords CONTAINS %q`, fromRefs, x)
		}
		w.add(truthAuthor, 0, `SELECT r %s r.Authors.Name.Last_Name = %q`, fromRefs, target)
		w.add(truthEditor, 0, `SELECT r.Title %s r.Editors.Name.Last_Name = %q`, fromRefs, target)
		rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
		w.order = roundRobin(len(w.pool))
	case "hot_repeat":
		w.docs = single()
		names := pickNames(rng, sc.hotEditors+4)[1:] // the target has its own query below
		// Pool position is Zipf rank, and the query at each of the first
		// eight ranks is fixed down to its constants — a CONTAINS stream
		// costs more the more postings its word has, so a seeded word at
		// rank 1 would make p50 a function of the seed. Only the corpus,
		// the names and the draws change with the seed. Each LIMIT stream
		// runs over a predicate about a fifth of the references satisfy.
		w.add(truthNone, 0, `SELECT r %s r.Abstract CONTAINS "system" LIMIT 10`, fromRefs)
		w.add(truthNone, 0, `SELECT r %s r.Key STARTS "Key0001"`, fromRefs)
		w.add(truthNone, 0, `SELECT r %s r.Abstract CONTAINS "algorithm" LIMIT 5`, fromRefs)
		w.add(truthNone, 0, `SELECT r.Key %s r.Authors.Name.Last_Name = %q`, fromRefs, names[0])
		w.add(truthAuthor, 0, `SELECT r %s r.Authors.Name.Last_Name = %q`, fromRefs, target)
		w.add(truthNone, 0, `SELECT r %s r.Abstract CONTAINS "equation" LIMIT 20`, fromRefs)
		w.add(truthNone, 0, `SELECT r.Key %s r.*X.Last_Name = %q`, fromRefs, names[1])
		w.add(truthNone, 0, `SELECT r.Authors.Name.Last_Name %s r.Editors.Name.Last_Name = %q`, fromRefs, names[2])
		for _, n := range names[3:] {
			w.add(truthNone, 0, `SELECT r %s r.Editors.Name.Last_Name = %q LIMIT 10`, fromRefs, n)
		}
		w.order = zipfOrder(rand.New(rand.NewSource(subSeed(seed, "order/"+name))), len(w.pool), zipfDraws)
	case "daemon_open":
		w.docs = genDocs(seed, sc.daemonFiles, sc.daemonRefs)
		for _, n := range pickNames(rng, sc.daemonNames) {
			w.add(kindFor(n, truthEditor), 10, `SELECT r %s r.Editors.Name.Last_Name = %q LIMIT 10`, fromRefs, n)
			w.add(kindFor(n, truthAuthor), 0, `SELECT r.Key %s r.Authors.Name.Last_Name = %q`, fromRefs, n)
		}
		w.due = poissonDue(rand.New(rand.NewSource(subSeed(seed, "arrivals/"+name))), sc.rate, seconds)
		w.order = zipfOrder(rand.New(rand.NewSource(subSeed(seed, "order/"+name))), len(w.pool), len(w.due))
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

func (w *workload) add(kind truthKind, limit int, format string, args ...any) {
	w.pool = append(w.pool, newQuery(w.docs, kind, limit, format, args...))
}

// openSchedule gives a closed-loop workload an open-loop schedule for the
// traced run's HTTP leg: the same rate and arrival process as daemon_open,
// over this workload's own order.
func (w *workload) openSchedule(sc scale, seed int64, seconds float64) (order []int, due []time.Duration) {
	if w.due != nil {
		n := sort.Search(len(w.due), func(i int) bool { return w.due[i].Seconds() >= seconds })
		return w.order[:n], w.due[:n]
	}
	due = poissonDue(rand.New(rand.NewSource(subSeed(seed, "arrivals/"+w.name))), sc.rate, seconds)
	order = make([]int, len(due))
	for i := range order {
		order[i] = w.order[i%len(w.order)]
	}
	return order, due
}

// sampleIndexes picks n distinct positions of the sending order, seeded,
// in ascending order; fewer when the order is shorter.
func sampleIndexes(seed int64, label string, total, n int) []int {
	if n > total {
		n = total
	}
	rng := rand.New(rand.NewSource(subSeed(seed, label)))
	out := rng.Perm(total)[:n]
	sort.Ints(out)
	return out
}

// quantile is the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// medianOr is the median, or the fallback when there is nothing to take it
// of.
func medianOr(vs []float64, fallback float64) float64 {
	if len(vs) == 0 {
		return fallback
	}
	return median(vs)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
