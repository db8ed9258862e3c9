package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/progs"
)

// reformattedTreeAddReq is treeadd on one line: different bytes, the same
// canonical print (so the same fingerprint and cache entry) as treeAddReq.
func reformattedTreeAddReq() Request {
	req := treeAddReq()
	req.Source = strings.Join(strings.Fields(progs.TreeAdd), " ")
	return req
}

// checkSourceIndex asserts the source index's structural invariant: at
// most one alias per live cache entry, every alias pointing at a live
// entry that records it.
func checkSourceIndex(t *testing.T, s *Service) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bySrc) > len(s.cache) {
		t.Fatalf("source index has %d aliases for %d cache entries", len(s.bySrc), len(s.cache))
	}
	for key, el := range s.bySrc {
		e := el.Value.(*cacheEntry)
		if s.cache[e.key] != el {
			t.Fatalf("alias %s points at an evicted entry %s", key, e.hex)
		}
		if !e.aliased || e.src != key {
			t.Fatalf("alias %s points at entry %s, which records alias %s (aliased=%v)", key, e.hex, e.src, e.aliased)
		}
	}
}

func indexLen(s *Service) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bySrc)
}

// TestSourceFrontMatchesFingerprintPath: a source-index hit returns
// exactly the Response the fingerprint path returns for the same request
// (name, fingerprint, cached flag, body bytes), across the corpus and 100
// generated programs, permuted roots, every limits form, merged mode, and
// with and without a request label.
func TestSourceFrontMatchesFingerprintPath(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{CacheCapacity: 1024})
	var bases []Request
	for _, e := range progs.Catalog {
		bases = append(bases, Request{Source: e.Source, Roots: e.Roots})
	}
	for seed := int64(1); seed <= 100; seed++ {
		bases = append(bases, Request{Source: progs.RandomProgram(seed)})
	}
	variants := []func(*Request){
		func(*Request) {},
		func(r *Request) { r.Limits = &LimitsSpec{} },
		func(r *Request) { r.Limits = &LimitsSpec{MaxExact: 3, MaxSegs: 4, MaxPaths: 5} },
		func(r *Request) { r.MaxContexts = -1 },
	}
	for i, base := range bases {
		for v, variant := range variants {
			for _, name := range []string{"", "label"} {
				req := base
				req.Name = name
				variant(&req)
				if first := svc.Analyze(ctx, req); first.Err != nil {
					t.Fatalf("program %d variant %d: %+v", i, v, first.Err)
				}
				fpPath := svc.analyzePrepared(ctx, svc.prepare(req))
				reqs := []Request{req}
				if len(req.Roots) > 1 {
					permuted := req
					permuted.Roots = slices.Clone(req.Roots)
					slices.Reverse(permuted.Roots)
					reqs = append(reqs, permuted)
				}
				for _, r := range reqs {
					before := svc.Stats().CacheSourceHits
					front := svc.Analyze(ctx, r)
					if svc.Stats().CacheSourceHits != before+1 {
						t.Fatalf("program %d variant %d roots %v: resubmission was not a source-index hit", i, v, r.Roots)
					}
					if front.Name != fpPath.Name || front.Fingerprint != fpPath.Fingerprint ||
						front.Cached != fpPath.Cached || !bytes.Equal(front.Body, fpPath.Body) || front.Err != nil {
						t.Fatalf("program %d variant %d name %q: source hit {%q %s %v} differs from fingerprint path {%q %s %v}",
							i, v, name, front.Name, front.Fingerprint, front.Cached, fpPath.Name, fpPath.Fingerprint, fpPath.Cached)
					}
				}
			}
		}
	}
}

// TestSourceFrontBoundedUnderZipf: a Zipf stream over 480 renamed treeadd
// variants, each in two spellings, through a 256-entry cache keeps the
// index within the cache after every request, every alias live.
func TestSourceFrontBoundedUnderZipf(t *testing.T) {
	const population = 480
	svc := New(Options{CacheCapacity: 256, Sessions: 2})
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.1, 1, population-1)
	for i := 0; i < 1500; i++ {
		v := int(zipf.Uint64())
		src := strings.Replace(progs.TreeAdd, "program treeadd", fmt.Sprintf("program treeadd_%d", v), 1)
		if rng.Intn(2) == 1 {
			src += "\n"
		}
		resp := svc.Analyze(context.Background(), Request{Source: src, Roots: []string{"root"}})
		if resp.Err != nil {
			t.Fatalf("request %d: %+v", i, resp.Err)
		}
		if want := fmt.Sprintf("treeadd_%d", v); resp.Name != want {
			t.Fatalf("request %d: name %q, want the declared %q", i, resp.Name, want)
		}
		checkSourceIndex(t, svc)
	}
	st := svc.Stats()
	if st.CacheEvictions == 0 || st.CacheSourceHits == 0 || st.CacheHits <= st.CacheSourceHits {
		t.Errorf("stream must evict and serve both hit kinds: evictions=%d hits=%d source hits=%d", st.CacheEvictions, st.CacheHits, st.CacheSourceHits)
	}
}

// TestSourceFrontAlternatingSpellings: a new spelling of a cached program
// replaces the entry's alias, so the old spelling's next submission goes
// through the fingerprint path (and re-takes the alias).
func TestSourceFrontAlternatingSpellings(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	a, b := treeAddReq(), reformattedTreeAddReq()
	steps := []struct {
		req               Request
		cached, sourceHit bool
	}{
		{a, false, false}, // miss: fill aliases a
		{a, true, true},   // a is the alias
		{b, true, false},  // fingerprint hit: b replaces a
		{b, true, true},
		{a, true, false}, // a was replaced: fingerprint hit, a back
		{a, true, true},
	}
	var want []byte
	for i, step := range steps {
		before := svc.Stats().CacheSourceHits
		resp := svc.Analyze(ctx, step.req)
		if resp.Err != nil {
			t.Fatalf("step %d: %+v", i, resp.Err)
		}
		sourceHit := svc.Stats().CacheSourceHits == before+1
		if resp.Cached != step.cached || sourceHit != step.sourceHit {
			t.Errorf("step %d: cached=%v source hit=%v, want %v/%v", i, resp.Cached, sourceHit, step.cached, step.sourceHit)
		}
		if want == nil {
			want = resp.Body
		} else if !bytes.Equal(resp.Body, want) {
			t.Errorf("step %d: body differs", i)
		}
		if n := indexLen(svc); n != 1 {
			t.Errorf("step %d: %d aliases for one entry, want 1", i, n)
		}
		checkSourceIndex(t, svc)
	}
}

// TestSourceFrontValidatesFirst: a negative limit is a 400 even when the
// same source with the zero limits it would otherwise resolve to is
// cached — validation runs before the index is consulted.
func TestSourceFrontValidatesFirst(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	req := treeAddReq()
	req.Limits = &LimitsSpec{}
	for i := 0; i < 2; i++ {
		if resp := svc.Analyze(ctx, req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	req.Limits = &LimitsSpec{MaxPaths: -1}
	resp := svc.Analyze(ctx, req)
	if resp.Err == nil || resp.Err.Status != 400 || resp.Err.Code != CodeInvalidRequest {
		t.Fatalf("negative limits on a cached source: got %+v, want 400 %s", resp.Err, CodeInvalidRequest)
	}
}

// TestSourceFrontNeverIndexesCompileErrors: a broken source fails on
// every submission (the parser runs each time) and leaves no alias.
func TestSourceFrontNeverIndexesCompileErrors(t *testing.T) {
	svc := New(Options{})
	bad := Request{Source: "program broken\nprocedure main()\nbegin\n  x :=\nend;"}
	for i := 0; i < 3; i++ {
		if resp := svc.Analyze(context.Background(), bad); resp.Err == nil || resp.Err.Code != CodeParseError {
			t.Fatalf("submission %d: got %+v, want %s", i, resp.Err, CodeParseError)
		}
	}
	if n := indexLen(svc); n != 0 {
		t.Errorf("%d aliases after compile errors, want 0", n)
	}
	if n := svc.phases[phaseParse].count.Load(); n != 3 {
		t.Errorf("parse ran %d times, want 3", n)
	}
}

// TestSourceFrontFlushAndDisabled: FlushCache empties the index with the
// cache, and a disabled cache never fronts.
func TestSourceFrontFlushAndDisabled(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	svc.Analyze(ctx, treeAddReq())
	if n := indexLen(svc); n != 1 {
		t.Fatalf("%d aliases after one fill, want 1", n)
	}
	svc.FlushCache()
	if n := indexLen(svc); n != 0 {
		t.Errorf("%d aliases after FlushCache, want 0", n)
	}
	if resp := svc.Analyze(ctx, treeAddReq()); resp.Err != nil || resp.Cached {
		t.Errorf("post-flush resubmission: err=%+v cached=%v, want a fresh miss", resp.Err, resp.Cached)
	}

	off := New(Options{CacheCapacity: -1})
	for i := 0; i < 3; i++ {
		if resp := off.Analyze(ctx, treeAddReq()); resp.Err != nil || resp.Cached {
			t.Fatalf("disabled cache, submission %d: err=%+v cached=%v", i, resp.Err, resp.Cached)
		}
	}
	if st := off.Stats(); st.CacheSourceHits != 0 || indexLen(off) != 0 {
		t.Errorf("disabled cache fronted: source hits=%d aliases=%d", st.CacheSourceHits, indexLen(off))
	}
}

// TestSourceFrontConcurrent: identical submissions racing from many
// goroutines (cold and warm) all get the same bytes; run under -race.
func TestSourceFrontConcurrent(t *testing.T) {
	svc := New(Options{Sessions: 2})
	ref := New(Options{}).Analyze(context.Background(), treeAddReq())
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp := svc.Analyze(context.Background(), treeAddReq())
				if resp.Err != nil || !bytes.Equal(resp.Body, ref.Body) || resp.Fingerprint != ref.Fingerprint {
					errs <- fmt.Sprintf("err=%+v fingerprint=%s", resp.Err, resp.Fingerprint)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	checkSourceIndex(t, svc)
	if st := svc.Stats(); st.CacheSourceHits == 0 || st.Analyses != 1 {
		t.Errorf("source hits=%d analyses=%d, want >0 and 1", st.CacheSourceHits, st.Analyses)
	}
}

// TestSourceFrontAllocs pins a source-index hit's allocations: only the
// sorted copy of the request's roots (the fingerprint path compiles and
// prints on top of that).
func TestSourceFrontAllocs(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{})
	req := treeAddReq()
	svc.Analyze(ctx, req)
	svc.Analyze(ctx, req)
	if n := testing.AllocsPerRun(100, func() { svc.Analyze(ctx, req) }); n > 1 {
		t.Errorf("source hit allocates %v times, want at most 1", n)
	}
}

// TestCacheEntryDoesNotPinSource: the declared name an entry keeps for
// unlabeled source hits is a copy, not a slice of the request source, so
// a cached result never holds a (possibly 16 MiB) request text alive.
func TestCacheEntryDoesNotPinSource(t *testing.T) {
	svc := New(Options{})
	src := progs.TreeAdd + strings.Repeat(" ", 1<<16)
	if resp := svc.Analyze(context.Background(), Request{Source: src, Roots: []string{"root"}}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	svc.mu.Lock()
	e := svc.lru.Front().Value.(*cacheEntry)
	svc.mu.Unlock()
	start := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	name := uintptr(unsafe.Pointer(unsafe.StringData(e.prog)))
	if e.prog != "treeadd" || (name >= start && name < start+uintptr(len(src))) {
		t.Errorf("cache entry name %q points into the request source", e.prog)
	}
}
