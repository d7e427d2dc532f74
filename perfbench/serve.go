package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"caasper"
)

// The serve-controller-loop workload: an in-process recommender service
// on a loopback listener, hundreds of tenants whose controllers each
// POST one decision interval of samples and read the decision stream
// between POSTs, on an open-loop schedule at fixed offered rates.
const (
	serveTenants  = 256
	serveBatch    = 10 // samples per POST: one decision interval
	serveCadence  = 10 // the service's default decision cadence, in samples
	serveMaxCores = 16
	serveInitial  = 2
	serveWindow   = 40 // the service's default CaaSPER window
	// explainEvery: one GET in this many asks for explanations.
	explainEvery = 10
	// maxConns caps the client connections; tenants are striped over
	// them so each tenant's batches stay in order.
	maxConns = 2
	// latencyLimit is the p99 limit, from due time, that a rung of the
	// ladder must meet on both POSTs and GETs. On a 2-vCPU VM the p99 sits
	// at 1–10 ms at every rate from 40k to 190k samples/s (GC mark phases
	// take one of the two cores; the host deschedules vCPUs), so a lower
	// limit picks a rung at random; 20 ms is crossed once a backlog grows.
	latencyLimit = 20 * time.Millisecond
	// The ladder's rungs are ladderBase·ladderStep^k samples/s.
	ladderBase = 10000.0
	ladderStep = 1.05
	// rungSeconds is the scheduled length of one ladder rung.
	rungSeconds = 1.0
	// requestTimeout fails a request that takes longer than this.
	requestTimeout = 2 * time.Second
)

// serveTenant is one tenant's generated sample stream.
type serveTenant struct {
	id     string
	values []float64 // rounded to the 4 decimals the wire carries
	bodies [][]byte  // rendered NDJSON batches, by batch index
}

// body returns the NDJSON body of batch k (samples k·serveBatch onward,
// cycling through the trace).
func (t *serveTenant) body(k int) []byte {
	for len(t.bodies) <= k {
		var b []byte
		n := len(t.bodies)
		for s := 0; s < serveBatch; s++ {
			b = append(b, `{"cpu":`...)
			b = strconv.AppendFloat(b, t.sample(n*serveBatch+s), 'f', 4, 64)
			b = append(b, "}\n"...)
		}
		t.bodies = append(t.bodies, b)
	}
	return t.bodies[k]
}

func (t *serveTenant) sample(i int) float64 { return t.values[i%len(t.values)] }

// serveInputs generates the tenants' traces from the seed: the repo's
// noisy generators, seeded per tenant, cycled over tenants.
func serveInputs(seed uint64) []*serveTenant {
	ts := make([]*serveTenant, serveTenants)
	for i := range ts {
		gen := caasper.Workloads[chaosGenerators[i%len(chaosGenerators)]]
		tr := gen(seed*1_000_003 + 500_000 + uint64(i))
		vals := make([]float64, len(tr.Values))
		for j, v := range tr.Values {
			vals[j], _ = strconv.ParseFloat(strconv.FormatFloat(v, 'f', 4, 64), 64)
		}
		ts[i] = &serveTenant{id: fmt.Sprintf("tenant-%03d", i), values: vals}
	}
	return ts
}

// tenantRun is one tenant's controller state during a phase. Only the
// tenant's lane goroutine touches it while the phase runs.
type tenantRun struct {
	accepted []int32 // batch indices answered 202, in order
	unknown  bool    // a POST failed in transit: acceptance unknown
	cursor   int64
	seen     []decision
	stale    int
	gets     int
}

// decision is the part of a streamed decision record the check needs.
type decision struct {
	Seq  int64 `json:"seq"`
	From int   `json:"from"`
	To   int   `json:"to"`
}

// phase is one fixed-rate stretch of the schedule against a fresh server.
type phase struct {
	rate     float64 // offered samples/s
	seconds  float64
	setup    time.Duration
	reqs     []schedReq
	res      []reqResult
	runs     []*tenantRun
	drain    time.Duration
	lagP99   float64       // ms, from the server's decision-latency histogram
	accepted int64         // samples
	span     time.Duration // start to the last request sent
	verified bool
	// handlerNs is the traced handler time per request (traced only).
	handlerNs  []int64
	allocBytes uint64
}

// schedule lays out the phase's requests: every tenant POSTs one batch
// per period P = tenants·batch/rate, with its GET half a period later,
// tenants' phases evenly spread in a seeded order.
func schedule(rate, seconds float64, seed uint64) []schedReq {
	period := float64(serveTenants*serveBatch) / rate * 1e9
	end := seconds * 1e9
	order := rand.New(rand.NewPCG(seed, 0x7365)).Perm(serveTenants)
	var reqs []schedReq
	for slot, tenant := range order {
		off := period * float64(slot) / serveTenants
		gets := 0
		for k := 0; off+float64(k)*period < end; k++ {
			due := off + float64(k)*period
			reqs = append(reqs, schedReq{due: int64(due), tenant: int32(tenant), kind: kindPost, batch: int32(k)})
			if g := due + period/2; g < end {
				kind := kindGet
				if gets%explainEvery == explainEvery-1 {
					kind = kindGetExplain
				}
				gets++
				reqs = append(reqs, schedReq{due: int64(g), tenant: int32(tenant), kind: kind})
			}
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

func serveConns() int {
	if n := runtime.NumCPU(); n < maxConns {
		return n
	}
	return maxConns
}

// runPhase starts a fresh server, registers the tenants (the timed
// set-up), runs the schedule at rate for seconds, drains the server and
// checks every tenant's decision stream against an offline replay.
func runPhase(tenants []*serveTenant, rate, seconds float64, seed uint64, tr *tracer) (*phase, error) {
	p := &phase{rate: rate, seconds: seconds, reqs: schedule(rate, seconds, seed)}
	p.res = make([]reqResult, len(p.reqs))
	p.runs = make([]*tenantRun, len(tenants))
	for i := range p.runs {
		p.runs[i] = &tenantRun{}
	}
	maxBatch := make([]int32, len(tenants))
	for _, q := range p.reqs {
		if q.kind == kindPost && q.batch > maxBatch[q.tenant] {
			maxBatch[q.tenant] = q.batch
		}
	}
	for i, t := range tenants {
		t.body(int(maxBatch[i])) // render bodies before the clock starts
	}
	conns := serveConns()
	lanes := make([][]int32, conns)
	for i, q := range p.reqs {
		l := int(q.tenant) % conns
		lanes[l] = append(lanes[l], int32(i))
	}
	runtime.GC()

	t0 := time.Now()
	reg := caasper.NewMetricsRegistry()
	srv, err := caasper.NewServer(caasper.ServeOptions{Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("NewServer: %w", err)
	}
	var handler http.Handler = srv.Handler()
	var th *tracedHandler
	root := int32(0)
	if tr != nil {
		root = tr.reserve()
		th = &tracedHandler{inner: handler, tr: tr, parent: root, slots: make([]atomic.Int64, len(p.reqs))}
		handler = th
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	fail := func(err error) (*phase, error) {
		shutdown()
		srv.Drain()
		return nil, err
	}
	clients := make([]*rawConn, conns)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range clients {
		if clients[i], err = dialRaw(ln.Addr().String()); err != nil {
			return fail(err)
		}
	}
	if err := register(clients, tenants); err != nil {
		return fail(err)
	}
	p.setup = time.Since(t0)

	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	send := func(lane int, i int32) (int, error) {
		return sendReq(clients[lane], tenants, p.runs, p.reqs[i], i, tr != nil)
	}
	start := time.Now()
	stop := int64((seconds + 1) * 1e9) // a lane this far behind gives up
	var t0span int64
	if tr != nil {
		t0span = tr.now()
	}
	openLoop(start, lanes, p.reqs, p.res, stop, send)
	if tr != nil {
		tr.addID(root, "serve.phase", 0, t0span, tr.now())
		runtime.ReadMemStats(&ms1)
		p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	}
	for _, r := range p.res {
		p.span = max(p.span, time.Duration(r.sent))
	}

	if err := shutdown(); err != nil {
		return nil, fmt.Errorf("http shutdown: %w", err)
	}
	d0 := time.Now()
	srv.Drain()
	p.drain = time.Since(d0)
	if tr != nil {
		end := tr.now()
		tr.add("serve.Drain", root, end-int64(p.drain), end)
		p.handlerNs = make([]int64, len(p.reqs))
		for i := range th.slots {
			p.handlerNs[i] = th.slots[i].Load()
		}
	}
	p.lagP99 = reg.Histogram("serve.decision_latency").Quantile(0.99) / 1e6

	if err := p.verify(srv.Handler(), tenants); err != nil {
		return nil, err
	}
	return p, nil
}

// register PUTs every tenant's config, striped over the connections.
func register(clients []*rawConn, tenants []*serveTenant) error {
	body := []byte(fmt.Sprintf(`{"policy":"caasper","min_cores":1,"max_cores":%d,"initial_cores":%d}`, serveMaxCores, serveInitial))
	for i, t := range tenants {
		status, _, err := clients[i%len(clients)].do(http.MethodPut, "/v1/tenants/"+t.id, jsonHeader, body)
		if err != nil {
			return fmt.Errorf("registering %s: %w", t.id, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("registering %s: status %d", t.id, status)
		}
	}
	return nil
}

const (
	jsonHeader   = "Content-Type: application/json\r\n"
	ndjsonHeader = "Content-Type: application/x-ndjson\r\n"
)

// sendReq performs one scheduled request and updates the tenant's
// controller state: accepted batches on a POST, the cursor and the
// decisions seen on a GET.
func sendReq(c *rawConn, tenants []*serveTenant, runs []*tenantRun, q schedReq, id int32, traced bool) (int, error) {
	t, tr := tenants[q.tenant], runs[q.tenant]
	header := ""
	if traced {
		header = reqIDHeader + ": " + strconv.Itoa(int(id)) + "\r\n"
	}
	if q.kind == kindPost {
		status, _, err := c.do(http.MethodPost, "/v1/tenants/"+t.id+"/samples", ndjsonHeader+header, t.body(int(q.batch)))
		switch {
		case err != nil:
			tr.unknown = true
		case status == http.StatusAccepted:
			tr.accepted = append(tr.accepted, q.batch)
		}
		return status, err
	}
	path := "/v1/tenants/" + t.id + "/decisions?since=" + strconv.FormatInt(tr.cursor, 10)
	if q.kind == kindGetExplain {
		path += "&explain=1"
	}
	status, body, err := c.do(http.MethodGet, path, header, nil)
	if err != nil || status != http.StatusOK {
		return status, err
	}
	if err := tr.read(bytes.NewReader(body)); err != nil {
		return status, err
	}
	tr.gets++
	if implied := int64(len(tr.accepted) * serveBatch / serveCadence); tr.cursor < implied {
		tr.stale++
	}
	return status, nil
}

// read appends a decision-stream body to the tenant's seen decisions and
// advances its cursor.
func (tr *tenantRun) read(body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		var d decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return fmt.Errorf("decision record: %w", err)
		}
		tr.seen = append(tr.seen, d)
		tr.cursor = d.Seq
	}
	return sc.Err()
}

// verify reads each tenant's remaining decisions after the drain and
// checks the serve ≡ simulator contract: Seq numbers contiguous from 1,
// one decision per accepted decision interval, and From/To equal to an
// offline replay of the accepted samples through caasper.NewReactive
// with the service's configuration.
func (p *phase) verify(h http.Handler, tenants []*serveTenant) error {
	p.verified = true
	for i, t := range tenants {
		tr := p.runs[i]
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/tenants/"+t.id+"/decisions?since="+strconv.FormatInt(tr.cursor, 10), nil))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("final read of %s: status %d", t.id, rr.Code)
		}
		if err := tr.read(rr.Body); err != nil {
			return err
		}
		p.accepted += int64(len(tr.accepted) * serveBatch)
		if tr.unknown {
			continue // a request failed in transit; counted as failed
		}
		ok, err := replayMatches(t, tr)
		if err != nil {
			return err
		}
		if !ok {
			p.verified = false
		}
	}
	return nil
}

// replayMatches replays the tenant's accepted batches offline and
// compares the decisions with the streamed ones.
func replayMatches(t *serveTenant, tr *tenantRun) (bool, error) {
	rec, err := caasper.NewReactive(caasper.DefaultConfig(serveMaxCores), serveWindow)
	if err != nil {
		return false, err
	}
	cores, minute, k := serveInitial, 0, 0
	for _, b := range tr.accepted {
		for s := 0; s < serveBatch; s++ {
			rec.Observe(minute, t.sample(int(b)*serveBatch+s))
			minute++
			if minute%serveCadence != 0 {
				continue
			}
			target := min(max(rec.Recommend(cores), 1), serveMaxCores)
			if k >= len(tr.seen) {
				return false, nil
			}
			d := tr.seen[k]
			if d.Seq != int64(k+1) || d.From != cores || d.To != target {
				return false, nil
			}
			cores = target
			k++
		}
	}
	return k == len(tr.seen), nil
}
