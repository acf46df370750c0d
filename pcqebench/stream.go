package main

import (
	"fmt"
	"math/rand"
	"time"
)

// opKind classifies a request for latency accounting.
type opKind int

const (
	// opRead is a query evaluated with θ=0.
	opRead opKind = iota
	// opPropose is a query evaluated with θ>0, so the strategy solver
	// may run.
	opPropose
	// opExplain plans a query over /v1/explain without evaluating it.
	opExplain
)

// op is one request of a workload's stream. Streams are pure functions
// of the seed: the program under test receives only these values.
type op struct {
	kind  opKind
	shape string
	// session selects the serve session (0 analyst, 1 manager).
	session int
	query   string
	theta   float64
	// apply asks an improve proposal to be applied with Engine.Apply.
	apply bool
	// check selects the request for the sampled output check.
	check bool
	// due is the serve arrival time, relative to the start of the run.
	due time.Duration
}

// Workload sizes. Suppliers each have ordersPerSupplier orders spread
// over regions regions (workload.GenerateDB).
const (
	ordersPerSupplier = 10
	regions           = 5
	reportSuppliers   = 5000
	improveSuppliers  = 2000
	improveSlice      = 100
	serveSuppliers    = 500
	// checkEvery is the sampling period of the report and improve output
	// checks: one read in checkEvery is re-verified.
	checkEvery = 8
	// reportWarmup is the number of report requests set-up runs.
	reportWarmup = 48
)

// reportShapes are the four report request shapes; %s placeholders take
// seeded literals.
var reportShapes = []struct{ name, sql string }{
	{"select", `SELECT Name, Rating FROM Suppliers WHERE Rating > %s`},
	{"distinct", `SELECT DISTINCT Region FROM Suppliers WHERE Rating > %s`},
	{"distinct-join", `SELECT DISTINCT Suppliers.Name FROM Suppliers JOIN Orders ON Suppliers.Name = Orders.Supplier WHERE Amount > %s AND Rating > %s`},
	{"group-join", `SELECT Suppliers.Name, COUNT(*) AS n FROM Suppliers JOIN Orders ON Suppliers.Name = Orders.Supplier WHERE Amount > %s GROUP BY Suppliers.Name`},
}

// numStrata is how many equal bins a literal's range is cut into.
const numStrata = 16

// literal draws literals from [lo, hi) stratified over numStrata bins:
// every numStrata draws visit each bin once, in seeded order, so runs of
// different seeds filter on equally spread constants. Four decimals make
// nearly every request's constant different.
type literal struct {
	lo, hi float64
	bins   []int
}

func (l *literal) draw(r *rand.Rand) string {
	if len(l.bins) == 0 {
		l.bins = r.Perm(numStrata)
	}
	u := (float64(l.bins[0]) + r.Float64()) / numStrata
	l.bins = l.bins[1:]
	return fmt.Sprintf("%.4f", l.lo+(l.hi-l.lo)*u)
}

// reportStream yields the four report shapes in equal shares: each block
// of four requests is a seeded permutation of the shapes.
type reportStream struct {
	r     *rand.Rand
	block []int
	// The literals of each shape. Ratings are uniform on [1, 5] and
	// amounts on [0, 100]. DISTINCT Region keeps at least 5/8 of the
	// suppliers, which puts its cost among the join shapes': with equal
	// shares of four shapes the median request is the boundary between
	// the two cheaper and the two dearer ones, and it is only steady
	// where their latencies overlap.
	selectRating, distinctRating, joinAmount, joinRating, groupAmount literal
}

func newReportStream(seed int64) *reportStream {
	return &reportStream{
		r:              rand.New(rand.NewSource(seed)),
		selectRating:   literal{lo: 1, hi: 5},
		distinctRating: literal{lo: 1, hi: 2.5},
		joinAmount:     literal{lo: 0, hi: 100},
		joinRating:     literal{lo: 1, hi: 5},
		groupAmount:    literal{lo: 0, hi: 100},
	}
}

func (s *reportStream) next() op {
	if len(s.block) == 0 {
		s.block = s.r.Perm(len(reportShapes))
	}
	shape := reportShapes[s.block[0]]
	s.block = s.block[1:]
	var q string
	switch shape.name {
	case "select":
		q = fmt.Sprintf(shape.sql, s.selectRating.draw(s.r))
	case "distinct":
		q = fmt.Sprintf(shape.sql, s.distinctRating.draw(s.r))
	case "distinct-join":
		q = fmt.Sprintf(shape.sql, s.joinAmount.draw(s.r), s.joinRating.draw(s.r))
	case "group-join":
		q = fmt.Sprintf(shape.sql, s.groupAmount.draw(s.r))
	}
	return op{kind: opRead, shape: shape.name, query: q, check: s.r.Intn(checkEvery) == 0}
}

// improveStream alternates θ=0 reads with θ∈{0.3, 0.5} proposals over
// seeded improveSlice-supplier slices; every fourth proposal request is
// marked for Engine.Apply. Slice positions are uniform, so applied
// slices overlap at random and the database saturates gradually rather
// than everywhere at once.
type improveStream struct {
	r         *rand.Rand
	i         int
	proposals int
}

func newImproveStream(seed int64) *improveStream {
	return &improveStream{r: rand.New(rand.NewSource(seed))}
}

// improveQuery is the DISTINCT-over-join restricted to one slice of
// supplier names.
func improveQuery(lo int) string {
	return fmt.Sprintf(`SELECT DISTINCT Suppliers.Name FROM Suppliers JOIN Orders ON Suppliers.Name = Orders.Supplier WHERE Suppliers.Name BETWEEN 's%04d' AND 's%04d'`,
		lo, lo+improveSlice-1)
}

func (s *improveStream) next() op {
	q := improveQuery(s.r.Intn(improveSuppliers - improveSlice + 1))
	s.i++
	if s.i%2 == 1 {
		return op{kind: opRead, shape: "slice", query: q, check: s.r.Intn(checkEvery) == 0}
	}
	s.proposals++
	theta := 0.3
	if s.r.Intn(2) == 1 {
		theta = 0.5
	}
	return op{kind: opPropose, shape: "slice-propose", query: q, theta: theta, apply: s.proposals%4 == 0}
}

// runningExample is the README's venture-capital query: the manager
// (β 0.06) sees ZStart withheld and is offered an improvement.
const runningExample = `SELECT DISTINCT CompanyInfo.Company, Income FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company WHERE Funding < 1000000`

// serveMix is one block of the serve mix, as indexes into the
// generator's queries; explainKind and exampleKind mark an explain of a
// generator query and the running example. The DISTINCT-over-join (2),
// the generator's join query, has double weight: with the four queries
// in equal shares the median read would fall between two queries'
// latencies, where it jumps from run to run. The per-region rollup (3),
// by far the slowest, opens every block; the rest follow in seeded
// order.
var serveMix = []int{3, 0, 1, 2, 2, explainKind, exampleKind}

const (
	explainKind = -1
	exampleKind = -2
)

// serveSchedule builds the serve arrival schedule: arrivals every
// 1/rate seconds over the run, in blocks of len(serveMix) arrivals.
// Analyst-session kinds are the generator's queries verbatim and
// explains of them; the running example runs with θ=1 on the manager
// session. queries are workload.GenerateDB's queries. Even spacing, and
// the rollup at a fixed place in each block, keep how often two slow
// requests meet from deciding a run's figures.
func serveSchedule(seed int64, queries []string, rate float64, run time.Duration) []op {
	r := rand.New(rand.NewSource(seed))
	var ops []op
	var block []int
	for i := 0; ; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if due >= run {
			return ops
		}
		if len(block) == 0 {
			block = []int{0}
			for _, j := range r.Perm(len(serveMix) - 1) {
				block = append(block, j+1)
			}
		}
		var o op
		switch k := serveMix[block[0]]; k {
		case explainKind:
			o = op{kind: opExplain, shape: "explain", query: queries[r.Intn(len(queries))]}
		case exampleKind:
			o = op{kind: opPropose, shape: "example", session: 1, query: runningExample, theta: 1}
		default:
			o = op{kind: opRead, shape: fmt.Sprintf("q%d", k), query: queries[k]}
		}
		block = block[1:]
		o.due = due
		ops = append(ops, o)
	}
}
