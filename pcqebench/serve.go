package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pcqe/internal/core"
	"pcqe/internal/obs"
	"pcqe/internal/relation"
	"pcqe/internal/server"
	"pcqe/internal/sql"
)

// serveRate is the serve arrival rate in requests per second: about
// half the closed-loop capacity of the serve mix over two connections,
// 85 requests/s on a 2-core x86-64 machine (see NOTES.md).
const serveRate = 40

// requestTimeout bounds one HTTP request; drainGrace bounds how long
// after the last due time queued requests are still sent. Together they
// keep a run within its time limit when the server stops answering.
const (
	requestTimeout = 10 * time.Second
	drainGrace     = 30 * time.Second
)

// serveSessions are the two identities the serve clients hold.
var serveSessions = [2]struct{ user, purpose string }{
	{analystUser, analystPurpose},
	{managerUser, managerPurpose},
}

// serveEnv is one server hosting a shared engine on a loopback
// listener, and the HTTP client that drives it.
type serveEnv struct {
	eng     *core.Engine
	queries []string
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	// conns is the number of client connections: one per session, at
	// most one per CPU.
	conns     int
	transport *http.Transport
	client    *http.Client
	dials     atomic.Int64
	panics    atomic.Int64
	tokens    [2]string
	// mirror is the benchmark's own confidence cache for traced replays.
	mirror *relation.ConfidenceCache
}

// panicLog counts the handler panics net/http reports on its error log.
type panicLog struct{ n *atomic.Int64 }

func (p panicLog) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("panic serving")) {
		p.n.Add(1)
	}
	return len(b), nil
}

// loadVenture adds the README running-example tables from testdata.
func loadVenture(cat *relation.Catalog, repo string) error {
	str := func(n string) relation.Column { return relation.Column{Name: n, Type: relation.TypeString} }
	num := func(n string) relation.Column { return relation.Column{Name: n, Type: relation.TypeInt} }
	for _, t := range []struct {
		name, file string
		schema     *relation.Schema
	}{
		{"Proposal", "proposal.csv", relation.NewSchema(str("Company"), str("Proposal"), num("Funding"))},
		{"CompanyInfo", "companyinfo.csv", relation.NewSchema(str("Company"), num("Income"))},
	} {
		tab, err := cat.CreateTable(t.name, t.schema)
		if err != nil {
			return err
		}
		f, err := os.Open(filepath.Join(repo, "testdata", t.file))
		if err != nil {
			return err
		}
		_, err = relation.LoadCSV(tab, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", t.file, err)
		}
	}
	return nil
}

// newServe builds the serve database, starts the server on a loopback
// port, opens both sessions and warms every request kind that succeeds.
func newServe(seed int64, repo string) (*serveEnv, error) {
	eng, queries, err := newEngine(serveSuppliers, seed)
	if err != nil {
		return nil, err
	}
	if err := loadVenture(eng.Catalog(), repo); err != nil {
		return nil, err
	}
	// pcqed always attaches a metrics registry; the server reuses it.
	eng.SetMetrics(obs.New())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{eng: eng, queries: queries, srv: server.New(eng, server.Config{}),
		served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	e.hs = &http.Server{Handler: e.srv.Handler(), ErrorLog: log.New(panicLog{&e.panics}, "", 0)}
	go func() { e.served <- e.hs.Serve(ln) }()

	e.conns = min(len(serveSessions), runtime.NumCPU())
	dialer := &net.Dialer{}
	e.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			e.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     e.conns,
		MaxIdleConnsPerHost: e.conns,
	}
	e.client = &http.Client{Transport: e.transport, Timeout: requestTimeout}
	if err := e.open(); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// open performs both session handshakes and the warm-up requests.
func (e *serveEnv) open() error {
	for i, s := range serveSessions {
		status, body, err := e.post("/v1/session", "", server.HandshakeRequest{User: s.user, Purpose: s.purpose})
		if err != nil || status != http.StatusCreated {
			return fmt.Errorf("handshake %s: status %d %s %v", s.user, status, body, err)
		}
		var hr server.HandshakeResponse
		if err := json.Unmarshal(body, &hr); err != nil {
			return fmt.Errorf("handshake %s: %w", s.user, err)
		}
		e.tokens[i] = hr.Token
	}
	warm := []op{
		{kind: opRead, query: e.queries[0]}, {kind: opRead, query: e.queries[1]}, {kind: opRead, query: e.queries[2]},
		{kind: opExplain, query: e.queries[3]},
		{kind: opPropose, session: 1, query: runningExample, theta: 1},
	}
	for _, o := range warm {
		if status, body, err := e.do(o); err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up %q: status %d %s %v", o.query, status, body, err)
		}
	}
	return nil
}

// close stops the server and waits for it to exit.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.transport.CloseIdleConnections()
	return errors.Join(err, e.srv.Drain(ctx))
}

// post sends one JSON request and reads the whole answer.
func (e *serveEnv) post(path, token string, payload any) (int, []byte, error) {
	b, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, e.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// do sends one request of the stream on its session.
func (e *serveEnv) do(o op) (int, []byte, error) {
	if o.kind == opExplain {
		return e.post("/v1/explain", e.tokens[o.session], server.ExplainRequest{Query: o.query})
	}
	return e.post("/v1/query", e.tokens[o.session], server.QueryRequest{Query: o.query, MinFraction: o.theta})
}

// outcome is one completed serve request.
type outcome struct {
	status int
	body   []byte
	err    error
	// lat is measured from the request's due time, busy from the moment
	// a connection worker took it, rt around the HTTP round trip alone.
	lat, busy, rt time.Duration
}

// openLoop sends the schedule at its due times over e.conns workers and
// judges every answer. With tracers (one per worker), each request is
// also replayed layer by layer in process before its round trip.
func (e *serveEnv) openLoop(schedule []op, tracers []*tracer, ls *layerStats) *loopResult {
	res := &loopResult{attempted: len(schedule)}
	out := make([]outcome, len(schedule))
	// The channel holds the whole schedule: the dispatcher never blocks,
	// so a stalled server shows as latency, not as a late generator.
	work := make(chan int, len(schedule))
	var wg sync.WaitGroup
	runtime.GC() // start from a collected heap, as every run does
	pause0, alloc0 := memStats()
	dials0, panics0 := e.dials.Load(), e.panics.Load()
	t0 := time.Now()
	// A server that stops answering must not hold the run open: requests
	// still queued this long after the last due time fail unsent.
	deadline := t0.Add(schedule[len(schedule)-1].due + drainGrace)
	for w := 0; w < e.conns; w++ {
		var tr *tracer
		if tracers != nil {
			tr = tracers[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if time.Now().After(deadline) {
					out[i] = outcome{err: errors.New("not sent: run deadline passed"),
						lat: time.Since(t0.Add(schedule[i].due))}
					continue
				}
				out[i] = e.send(schedule[i], t0, tr, ls)
			}
		}()
	}
	for i, o := range schedule {
		due := t0.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late.add(msSince(due))
		work <- i
	}
	close(work)
	wg.Wait()
	res.wall = time.Since(t0)
	pause1, alloc1 := memStats()
	res.gcPauseNs, res.allocBytes = pause1-pause0, alloc1-alloc0
	res.panics = e.panics.Load() - panics0
	// Each worker may open one connection; any further dial replaced a
	// dropped one.
	res.reconnects = max(0, e.dials.Load()-max(dials0, int64(e.conns)))
	e.judge(schedule, out, res, ls)
	return res
}

// send performs one scheduled request.
func (e *serveEnv) send(o op, t0 time.Time, tr *tracer, ls *layerStats) outcome {
	start := time.Now()
	var oc outcome
	if tr == nil {
		oc.status, oc.body, oc.err = e.do(o)
		oc.rt = time.Since(start)
	} else {
		root := tr.begin("request", -1)
		s := serveSessions[o.session]
		replayLayers(tr, root, e.eng, e.mirror, o, s.user, s.purpose, ls)
		name := "http.roundtrip"
		if o.kind == opExplain {
			name = "http.explain"
		}
		id := tr.begin(name, root)
		rt := time.Now()
		oc.status, oc.body, oc.err = e.do(o)
		oc.rt = time.Since(rt)
		if oc.err != nil {
			tr.fail(id, oc.err.Error())
		} else {
			tr.end(id)
		}
		tr.end(root)
		tr.finish()
	}
	done := time.Now()
	oc.lat = done.Sub(t0.Add(o.due))
	oc.busy = done.Sub(start)
	return oc
}

// judge classifies every outcome, records latencies and per-layer wire
// counters, and checks each answer against the in-process engine.
func (e *serveEnv) judge(schedule []op, out []outcome, res *loopResult, ls *layerStats) {
	refs := map[op]*reference{}
	for i, o := range schedule {
		oc := out[i]
		ms := float64(oc.lat) / 1e6
		switch o.kind {
		case opRead:
			res.reads.add(ms)
		case opPropose:
			res.proposes.add(ms)
		case opExplain:
			res.explains.add(ms)
		}
		res.busy.add(float64(oc.busy) / 1e6)
		switch {
		case oc.err != nil:
			res.transportErrors++
		case oc.status == http.StatusTooManyRequests:
			res.rejected429++
		case oc.status == http.StatusServiceUnavailable:
			res.rejected503++
		case oc.status != http.StatusOK:
			res.httpErrors++
		}
		if oc.err != nil || oc.status != http.StatusOK {
			res.failed++
			res.note("%s: status %d %v %.200s", o.shape, oc.status, oc.err, oc.body)
			continue
		}
		key := o
		key.due = 0
		ref := refs[key]
		if ref == nil {
			ref = e.reference(o)
			refs[key] = ref
		}
		if ls != nil {
			ls.Lock()
			ls.responses++
			ls.responseBytes += int64(len(oc.body))
			ls.Unlock()
		}
		var err error
		if o.kind == opExplain {
			err = ref.checkExplain(oc.body)
		} else {
			err = e.checkQuery(o, ref, oc, res, ls)
		}
		if err != nil {
			res.problem("%s: %v", o.shape, err)
		}
	}
}

// reference is the in-process engine's answer to one distinct request.
type reference struct {
	resp    *core.Response
	plan    string
	version int64
	err     error
}

// reference evaluates a request in process, as the session's identity,
// at the version the serve run read (serve never writes).
func (e *serveEnv) reference(o op) *reference {
	s := serveSessions[o.session]
	ref := &reference{}
	ref.err = guard(func() error {
		if o.kind == opExplain {
			stmt, err := sql.Parse(o.query)
			if err != nil {
				return err
			}
			snap := e.eng.Catalog().Snapshot()
			defer snap.Release()
			plan, info, err := sql.PlanDetailedAt(e.eng.Catalog(), stmt, snap.Version())
			if err != nil {
				return err
			}
			ref.plan, ref.version = relation.ExplainAnnotated(plan, info.Notes), snap.Version()
			return nil
		}
		resp, err := e.eng.EvaluateContext(context.Background(),
			core.Request{User: s.user, Purpose: s.purpose, Query: o.query, MinFraction: o.theta})
		ref.resp = resp
		return err
	})
	return ref
}

func (ref *reference) checkExplain(body []byte) error {
	if ref.err != nil {
		return fmt.Errorf("server answered a request the engine fails: %v", ref.err)
	}
	var w server.ExplainResponse
	if err := json.Unmarshal(body, &w); err != nil {
		return err
	}
	if w.Plan != ref.plan || w.Version != ref.version {
		return fmt.Errorf("explain differs from the in-process plan at version %d", ref.version)
	}
	return nil
}

// checkQuery compares a /v1/query answer with the in-process engine's:
// same version, released and withheld counts, released rows and
// confidences, and proposal; no withheld row may appear in the body.
func (e *serveEnv) checkQuery(o op, ref *reference, oc outcome, res *loopResult, ls *layerStats) error {
	var w server.WireResponse
	if err := json.Unmarshal(oc.body, &w); err != nil {
		return err
	}
	if w.Proposal != nil {
		res.costs = append(res.costs, w.Proposal.Cost)
	}
	if ls != nil {
		ls.Lock()
		if p := phaseOfWire(w.Timings); p != nil {
			ls.addEngine(p)
			if req := p.find("request"); req != nil {
				ls.queries++
				ls.wireNs += int64(oc.rt - req.dur)
			}
		}
		if w.Proposal != nil {
			ls.proposals++
			ls.increments += int64(len(w.Proposal.Increments))
		}
		ls.Unlock()
	}
	if ref.err != nil {
		return fmt.Errorf("server answered a request the engine fails: %v", ref.err)
	}
	r := ref.resp
	if w.Version != r.Version || w.WithheldCount != len(r.Withheld) || len(w.Released) != len(r.Released) {
		return fmt.Errorf("version %d released %d withheld %d, engine: version %d released %d withheld %d",
			w.Version, len(w.Released), w.WithheldCount, r.Version, len(r.Released), len(r.Withheld))
	}
	withheld := make(map[string]bool, len(r.Withheld))
	for _, row := range r.Withheld {
		withheld[row.Tuple.Key()] = true
	}
	for i, row := range w.Released {
		key := (&relation.Tuple{Values: row.Values}).Key()
		if withheld[key] {
			return fmt.Errorf("withheld row %v in the response body", row.Values)
		}
		if want := r.Released[i]; key != want.Tuple.Key() || row.Confidence != want.Confidence {
			return fmt.Errorf("released row %d is %v at %g, engine: %v at %g", i, row.Values, row.Confidence, want.Tuple.Values, want.Confidence)
		}
	}
	if (w.Proposal != nil) != (r.Proposal != nil) {
		return fmt.Errorf("proposal offered: %t, engine: %t", w.Proposal != nil, r.Proposal != nil)
	}
	if w.Proposal != nil && (math.Abs(w.Proposal.Cost-r.Proposal.Cost()) > 1e-9 || len(w.Proposal.Increments) != len(r.Proposal.Increments())) {
		return fmt.Errorf("proposal cost %g with %d increments, engine: %g with %d",
			w.Proposal.Cost, len(w.Proposal.Increments), r.Proposal.Cost(), len(r.Proposal.Increments()))
	}
	return nil
}
