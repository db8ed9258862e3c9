package service

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/progs"
)

// gateStore is a SummaryStore whose Get blocks until released. runAnalysis
// probes the store right after checking a session out, so a blocked Get is
// a deterministic "analysis in progress, session held" rendezvous — the
// concurrency tests below park a request there instead of racing timers
// against real fixpoint work.
type gateStore struct {
	entered chan struct{} // one signal per Get reached
	release chan struct{} // close to let every Get (current and future) through
}

func newGateStore() *gateStore {
	return &gateStore{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateStore) Get(key Fp) (*analysis.ProcSeed, bool) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return nil, false
}

func (g *gateStore) Put(key Fp, bodyFp Fp, seed *analysis.ProcSeed) {}

func (g *gateStore) Stats() SummaryStoreStats { return SummaryStoreStats{} }

// stepCancelCtx reports Canceled after `left` Err checks — the service-side
// twin of the analysis package's countdown context: it lands a cancellation
// at an exact round barrier inside the engine, independent of scheduling.
type stepCancelCtx struct {
	context.Context
	left int
}

func (c *stepCancelCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func waitStat(t *testing.T, what string, pred func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if pred() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func treeAddReq() Request {
	return Request{Name: "treeadd", Source: progs.TreeAdd, Roots: []string{"root"}}
}

// TestAdmissionShed429: with a pool of one, no queue, and an analysis
// parked mid-run, the next distinct program is refused admission with 429
// overloaded — and once the first run finishes, the pool serves again.
func TestAdmissionShed429(t *testing.T) {
	gate := newGateStore()
	svc := New(Options{
		Sessions:      1,
		MaxQueue:      -1, // no queue: pool full = shed
		CacheCapacity: -1, // no coalescing: every request meets admission
		SummaryStore:  gate,
	})
	first := make(chan Response, 1)
	go func() { first <- svc.Analyze(context.Background(), treeAddReq()) }()
	<-gate.entered // the session is now held, admission is saturated

	if st := svc.Stats(); st.Busy != 1 || st.QueueCapacity != 0 {
		t.Fatalf("while parked: busy=%d queue_capacity=%d, want 1 and 0", st.Busy, st.QueueCapacity)
	}
	shedResp := svc.Analyze(context.Background(), Request{Name: "pair", Source: progs.CtxPair})
	if shedResp.Err == nil || shedResp.Err.Status != 429 || shedResp.Err.Code != CodeOverloaded {
		t.Fatalf("saturated pool: got %+v, want 429 %s", shedResp.Err, CodeOverloaded)
	}

	close(gate.release)
	if resp := <-first; resp.Err != nil {
		t.Fatalf("parked analysis failed after release: %+v", resp.Err)
	}
	// Pool is reusable: the shed program now succeeds.
	if resp := svc.Analyze(context.Background(), Request{Name: "pair", Source: progs.CtxPair}); resp.Err != nil {
		t.Fatalf("post-shed request failed: %+v", resp.Err)
	}
	st := svc.Stats()
	if st.Shed != 1 || st.ErrorCodes[CodeOverloaded] != 1 {
		t.Errorf("shed accounting: shed=%d codes=%v, want 1 shed counted as %s", st.Shed, st.ErrorCodes, CodeOverloaded)
	}
	if st.Busy != 0 || st.Queued != 0 {
		t.Errorf("gauges must drain: busy=%d queued=%d", st.Busy, st.Queued)
	}
}

// TestQueueExpired: a request admitted into the queue whose context ends
// before a session frees leaves with 499 canceled, counted as expired, and
// returns its admission token (the pool keeps serving).
func TestQueueExpired(t *testing.T) {
	gate := newGateStore()
	svc := New(Options{
		Sessions:      1,
		MaxQueue:      1,
		CacheCapacity: -1,
		SummaryStore:  gate,
	})
	first := make(chan Response, 1)
	go func() { first <- svc.Analyze(context.Background(), treeAddReq()) }()
	<-gate.entered

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan Response, 1)
	go func() { queued <- svc.Analyze(ctx, Request{Name: "pair", Source: progs.CtxPair}) }()
	waitStat(t, "queue depth 1", func() bool { return svc.Stats().Queued == 1 })
	cancel()
	resp := <-queued
	if resp.Err == nil || resp.Err.Status != 499 || resp.Err.Code != CodeCanceled {
		t.Fatalf("canceled while queued: got %+v, want 499 %s", resp.Err, CodeCanceled)
	}
	if st := svc.Stats(); st.Expired != 1 || st.Queued != 0 {
		t.Errorf("expired accounting: expired=%d queued=%d, want 1 and 0", st.Expired, st.Queued)
	}

	close(gate.release)
	if resp := <-first; resp.Err != nil {
		t.Fatalf("parked analysis failed after release: %+v", resp.Err)
	}
	// The expired request's token came back: queueing works again.
	if resp := svc.Analyze(context.Background(), Request{Name: "pair", Source: progs.CtxPair}); resp.Err != nil {
		t.Fatalf("post-expiry request failed: %+v", resp.Err)
	}
}

// TestMidFixpointCancelLeavesPoolClean cancels an analysis at a round
// barrier inside the engine and checks the service-level contract: typed
// 499, no partial cache entry, session back in the pool, and the very next
// request (same program) analyzes fresh and succeeds.
func TestMidFixpointCancelLeavesPoolClean(t *testing.T) {
	svc := New(Options{Sessions: 2})
	p := svc.prepare(treeAddReq())
	if p.err != nil {
		t.Fatal(p.err)
	}
	_, rerr := svc.runAnalysis(&stepCancelCtx{Context: context.Background(), left: 1}, p)
	if rerr == nil || rerr.Status != 499 || rerr.Code != CodeCanceled {
		t.Fatalf("mid-fixpoint cancel: got %+v, want 499 %s", rerr, CodeCanceled)
	}
	if svc.cacheGet(p) != nil {
		t.Error("canceled run must not leave a cache entry")
	}
	if got := len(svc.sessions); got != 2 {
		t.Fatalf("session pool has %d free sessions after cancel, want 2", got)
	}
	if st := svc.Stats(); st.Busy != 0 {
		t.Errorf("busy gauge = %d after cancel, want 0", st.Busy)
	}
	resp := svc.Analyze(context.Background(), treeAddReq())
	if resp.Err != nil || resp.Cached {
		t.Fatalf("fresh rerun after cancel: err=%+v cached=%v, want success, uncached", resp.Err, resp.Cached)
	}
}

// TestBudgetExceededIs503: a one-round budget fails the recursive program
// with 503 budget_exceeded, leaves the pool clean, and does not poison the
// service for programs that fit the budget.
func TestBudgetExceededIs503(t *testing.T) {
	svc := New(Options{
		Sessions: 1,
		Analysis: analysis.Options{Budgets: analysis.Budgets{MaxRounds: 1}},
	})
	resp := svc.Analyze(context.Background(), treeAddReq())
	if resp.Err == nil || resp.Err.Status != 503 || resp.Err.Code != CodeBudgetExceeded {
		t.Fatalf("budgeted recursive program: got %+v, want 503 %s", resp.Err, CodeBudgetExceeded)
	}
	if svc.cacheGet(svc.prepare(treeAddReq())) != nil {
		t.Error("budget-failed run must not leave a cache entry")
	}
	if st := svc.Stats(); st.ErrorCodes[CodeBudgetExceeded] != 1 || st.Busy != 0 {
		t.Errorf("budget accounting: codes=%v busy=%d", st.ErrorCodes, st.Busy)
	}
	tiny := Request{Name: "tiny", Source: "program tiny\nprocedure main()\n  a: handle\nbegin\n  a := new()\nend;"}
	if resp := svc.Analyze(context.Background(), tiny); resp.Err != nil {
		t.Fatalf("one-round program must fit a one-round budget: %+v", resp.Err)
	}
}

// TestBudgetedServiceByteIdentical: generous budgets, a queue bound, and a
// request timeout must not change one byte of any successful response —
// and must not perturb the fingerprint (budgets are work caps, not inputs).
func TestBudgetedServiceByteIdentical(t *testing.T) {
	plain := New(Options{})
	budgeted := New(Options{
		Analysis:       analysis.Options{Budgets: analysis.Budgets{MaxRounds: 1 << 20, MaxInternedPaths: 1 << 30}},
		MaxQueue:       8,
		RequestTimeout: time.Minute,
	})
	for _, e := range progs.Catalog {
		req := Request{Name: e.Name, Source: e.Source, Roots: e.Roots}
		a := plain.Analyze(context.Background(), req)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		b := budgeted.Analyze(ctx, req)
		cancel()
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%s: plain err=%+v budgeted err=%+v", e.Name, a.Err, b.Err)
		}
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("%s: budgets changed the fingerprint: %s vs %s", e.Name, a.Fingerprint, b.Fingerprint)
		}
		if !bytes.Equal(a.Body, b.Body) {
			t.Errorf("%s: budgeted body differs from unbudgeted body", e.Name)
		}
	}
}

// TestDetachedFlightSurvivesLeaderDeadline is the coalescing regression
// test: two requests share one flight, the LEADER's deadline expires
// mid-run, and the surviving waiter still gets the full result — because
// the flight executes on a context detached from the caller that started
// it. Before the detachment fix the leader's deadline killed the shared
// work and every waiter got the leader's error.
func TestDetachedFlightSurvivesLeaderDeadline(t *testing.T) {
	gate := newGateStore()
	svc := New(Options{Sessions: 1, SummaryStore: gate})
	ref := New(Options{}).Analyze(context.Background(), treeAddReq())
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	leader := make(chan Response, 1)
	go func() { leader <- svc.Analyze(ctx, treeAddReq()) }()
	<-gate.entered // flight is running and parked; leader is waiting on it
	lresp := <-leader
	if lresp.Err == nil || lresp.Err.Status != 504 || lresp.Err.Code != CodeDeadlineExceeded {
		t.Fatalf("leader past deadline: got %+v, want 504 %s", lresp.Err, CodeDeadlineExceeded)
	}

	waiter := make(chan Response, 1)
	go func() { waiter <- svc.Analyze(context.Background(), treeAddReq()) }()
	// Give the waiter time to join the in-flight analysis (its prepare is
	// microseconds; the flight stays parked until we release the gate, so
	// this sleep can only err toward the already-passing side).
	time.Sleep(100 * time.Millisecond)
	close(gate.release)
	wresp := <-waiter
	if wresp.Err != nil {
		t.Fatalf("waiter must survive the leader's deadline: %+v", wresp.Err)
	}
	if !bytes.Equal(wresp.Body, ref.Body) {
		t.Error("waiter body differs from a fresh reference analysis")
	}
	st := svc.Stats()
	if st.Analyses != 1 {
		t.Errorf("analyses = %d, want 1 (waiter coalesced, not re-run)", st.Analyses)
	}
	if st.Coalesced != 1 {
		t.Errorf("coalesced = %d, want 1", st.Coalesced)
	}
	// The detached flight also populated the cache for later requesters.
	if resp := svc.Analyze(context.Background(), treeAddReq()); resp.Err != nil || !resp.Cached {
		t.Errorf("post-flight request: err=%+v cached=%v, want cache hit", resp.Err, resp.Cached)
	}
}
