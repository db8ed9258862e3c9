package service

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/path"
)

// Shard router: consistent-hashes the canonical program fingerprint across
// N independent Services ("shards"), each with its own session pool,
// private per-session Spaces, and result cache. Routing is BY CONTENT, not
// by connection: the same program always lands on the same shard, so each
// shard's result cache and warm memo tables see a stable slice of the
// program population, and no cross-shard coordination is ever needed.
//
// Shard count is a pure capacity knob. Rendered bodies are functions of
// the canonical source and options only — never of intern IDs, Space
// identity, or which shard served the request — so responses are
// byte-identical whatever N is; the shard-equivalence suite pins that.
// Programs that fail to compile have no fingerprint (zero Fp) and route
// deterministically to the zero-key shard.

// ringReplicas is the number of virtual points each shard contributes to
// the hash ring; more points smooth the key-space split across shards.
const ringReplicas = 64

type ringPoint struct {
	hash  uint64
	shard int
}

// Router fans requests out over fingerprint-sharded Services. It serves
// the same Analyzer surface as a single Service, so transports (the HTTP
// handler, silbench -server) are shard-count-agnostic.
type Router struct {
	shards []*Service
	ring   []ringPoint
}

const ringSeed uint64 = 0x9e3779b97f4a7c15

// NewRouter builds n identical shards from one Options value. n < 1 is
// treated as 1.
func NewRouter(n int, opts Options) *Router {
	if n < 1 {
		n = 1
	}
	r := &Router{}
	for i := 0; i < n; i++ {
		r.shards = append(r.shards, New(opts))
	}
	for i := 0; i < n; i++ {
		base := path.Mix64(uint64(i+1) * ringSeed)
		for v := 0; v < ringReplicas; v++ {
			r.ring = append(r.ring, ringPoint{
				hash:  path.Mix64(base ^ uint64(v+1)*ringSeed),
				shard: i,
			})
		}
	}
	// Deterministic ring: ties (vanishingly unlikely) break by shard index
	// so every Router over the same n routes identically.
	sort.Slice(r.ring, func(a, b int) bool {
		if r.ring[a].hash != r.ring[b].hash {
			return r.ring[a].hash < r.ring[b].hash
		}
		return r.ring[a].shard < r.ring[b].shard
	})
	return r
}

// NumShards reports the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard returns shard i (stats and test access).
func (r *Router) Shard(i int) *Service { return r.shards[i] }

// shardFor picks the owning shard: the first ring point clockwise from the
// fingerprint's position, wrapping at the top. A zero fingerprint (compile
// failure) is as deterministic as any other key.
func (r *Router) shardFor(fp Fp) int {
	key := path.Mix64(fp.Hi ^ path.Mix64(fp.Lo+ringSeed))
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= key })
	if i == len(r.ring) {
		i = 0
	}
	return r.ring[i].shard
}

// Analyze prepares (compiles + fingerprints) the request once, then serves
// it on the fingerprint's owning shard. prepare touches no per-shard
// counters, so running it on shard 0 unconditionally is sound (phase
// latencies for parse/fingerprint land on shard 0's histograms — the
// scraper sums across shards anyway). The shards' source indexes are not
// consulted: the owning shard is only known after fingerprinting.
func (r *Router) Analyze(ctx context.Context, req Request) Response {
	p := r.shards[0].prepare(req)
	return r.shards[r.shardFor(p.fp)].analyzePrepared(ctx, p)
}

// AnalyzeBatch serves a multi-program request across the shards, responses
// in request order. The worker budget is the total session count across
// shards; per-shard queueing still bounds each shard to its own pool.
func (r *Router) AnalyzeBatch(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	if len(reqs) == 1 {
		out[0] = r.Analyze(ctx, reqs[0])
		return out
	}
	workers := 0
	for _, s := range r.shards {
		workers += s.opts.Sessions
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = r.Analyze(ctx, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// RouterStats is the sharded /stats document: the per-shard snapshots plus
// a Total that aggregates them (counter fields sum; the cache hit rate
// recomputes from the summed traffic; the memo hit rate is a
// verdict-weighted mean; the per-session slices concatenate in shard
// order).
type RouterStats struct {
	Shards   int     `json:"shards"`
	Total    Stats   `json:"total"`
	PerShard []Stats `json:"per_shard"`
}

// Stats snapshots every shard.
func (r *Router) Stats() RouterStats {
	rs := RouterStats{Shards: len(r.shards)}
	var memoWeighted float64
	var memoVerdicts int
	for _, s := range r.shards {
		st := s.Stats()
		rs.PerShard = append(rs.PerShard, st)
		t := &rs.Total
		t.Served += st.Served
		t.Analyses += st.Analyses
		t.Errors += st.Errors
		t.CacheHits += st.CacheHits
		t.CacheSourceHits += st.CacheSourceHits
		t.CacheMisses += st.CacheMisses
		t.CacheEvictions += st.CacheEvictions
		t.CacheSize += st.CacheSize
		t.CacheCapacity += st.CacheCapacity
		t.Coalesced += st.Coalesced
		t.Shed += st.Shed
		t.Expired += st.Expired
		t.Busy += st.Busy
		t.Queued += st.Queued
		t.QueueCapacity += st.QueueCapacity
		// Merge per-code counts over the FIXED code vocabulary (never by
		// ranging the map — map-range order must not shape output).
		for _, code := range errorCodes {
			if n := st.ErrorCodes[code]; n > 0 {
				if t.ErrorCodes == nil {
					t.ErrorCodes = map[string]uint64{}
				}
				t.ErrorCodes[code] += n
			}
		}
		t.Sessions += st.Sessions
		t.SessionLoads = append(t.SessionLoads, st.SessionLoads...)
		t.SessionEpochs = append(t.SessionEpochs, st.SessionEpochs...)
		t.Epoch += st.Epoch
		t.EpochResets += st.EpochResets
		t.InternedPaths += st.InternedPaths
		t.InternedHandles += st.InternedHandles
		t.MemoVerdicts += st.MemoVerdicts
		t.SummaryStore = t.SummaryStore.add(st.SummaryStore)
		memoWeighted += st.MemoHitRate * float64(st.MemoVerdicts)
		memoVerdicts += st.MemoVerdicts
	}
	if total := rs.Total.CacheHits + rs.Total.CacheMisses; total > 0 {
		rs.Total.HitRate = float64(rs.Total.CacheHits) / float64(total)
	}
	if memoVerdicts > 0 {
		rs.Total.MemoHitRate = memoWeighted / float64(memoVerdicts)
	}
	return rs
}

// FlushCache drops every shard's result cache.
func (r *Router) FlushCache() {
	for _, s := range r.shards {
		s.FlushCache()
	}
}

// WriteMetrics writes the Prometheus exposition with one series per shard
// (uniform shard="N" labels; see metrics.go).
func (r *Router) WriteMetrics(w io.Writer) {
	snaps := make([]metricsSnapshot, len(r.shards))
	for i, s := range r.shards {
		snaps[i] = s.metricsSnapshot()
	}
	writePrometheus(w, snaps)
}
