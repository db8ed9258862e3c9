package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// driver is one workload: how it warms a fresh server during set-up, how
// it loads the server for one measured window, and which corpus bases
// its programs derive from.
type driver interface {
	warm(b *bench, rec *recorder)
	run(b *bench, secs float64, part int, rec *recorder) window
	bases() []string
	cold() bool
	describe() string
}

var workloadNames = []string{"cold-mix", "hot-repeat", "edit-stream"}

func newDriver(name string, c *corpus, seed int64) (driver, error) {
	switch name {
	case "cold-mix":
		return &coldDriver{c: c, seed: seed}, nil
	case "hot-repeat":
		h := newHotRepeat(c, seed)
		d := &hotDriver{h: h, seed: seed}
		for _, r := range h.pop {
			d.bodies = append(d.bodies, r.body())
		}
		return d, nil
	case "edit-stream":
		return &editDriver{es: newEditStream(c, seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sendN sends requests 0..n-1 of src over the given number of clients.
func (b *bench) sendN(n, clients int, src source, rec *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				req, body := src(i)
				b.send(req, body, rec)
			}
		}()
	}
	wg.Wait()
}

func allBases(c *corpus) []string {
	out := make([]string, len(c.tmpls))
	for i, t := range c.tmpls {
		out[i] = t.baseName
	}
	return out
}

// coldDriver: closed loop, 2 clients, every program new to the server.
type coldDriver struct {
	c    *corpus
	seed int64
}

const coldWarmRequests = 240

func (d *coldDriver) src(stream string) source {
	g := coldMix{c: d.c, seed: d.seed, stream: stream}
	return func(i int) (request, []byte) {
		r := g.at(i)
		return r, r.body()
	}
}

func (d *coldDriver) warm(b *bench, rec *recorder) {
	b.sendN(coldWarmRequests, 2, d.src("w"), rec)
}

func (d *coldDriver) run(b *bench, secs float64, part int, rec *recorder) window {
	return b.closedLoop(2, secs, d.src(fmt.Sprintf("c%d", part)), rec)
}

func (d *coldDriver) bases() []string { return allBases(d.c) }
func (d *coldDriver) cold() bool      { return true }
func (d *coldDriver) describe() string {
	return "closed loop, 2 clients; alpha-renamed corpus programs interleaved with renamed random programs, all new"
}

// hotDriver: closed loop, 2 clients, Zipf popularity over a variant
// population larger than the result cache, warmed during set-up.
type hotDriver struct {
	h      *hotRepeat
	bodies [][]byte
	seed   int64
}

const defaultCacheEntries = 256 // service.Options zero value

func (d *hotDriver) warm(b *bench, rec *recorder) {
	order := d.h.warmOrder(defaultCacheEntries)
	b.sendN(len(order), 2, func(i int) (request, []byte) {
		return d.h.pop[order[i]], d.bodies[order[i]]
	}, rec)
}

func (d *hotDriver) src(part int) source {
	seed := d.seed*31 + int64(part)
	return func(i int) (request, []byte) {
		k := d.h.draw(seed, i)
		return d.h.pop[k], d.bodies[k]
	}
}

func (d *hotDriver) run(b *bench, secs float64, part int, rec *recorder) window {
	return b.closedLoop(2, secs, d.src(part), rec)
}

func (d *hotDriver) bases() []string { return []string{d.h.base} }
func (d *hotDriver) cold() bool      { return false }
func (d *hotDriver) describe() string {
	return fmt.Sprintf("closed loop, 2 clients; Zipf(%.1f) over %d variants of %s, cache warmed",
		hotZipfS, len(d.h.pop), d.h.base)
}

// editDriver: closed loop, 1 client, an editor session over the
// multi-procedure corpus programs.
type editDriver struct {
	es *editStream
}

const editWarmSteps = 240

func (d *editDriver) warm(b *bench, rec *recorder) {
	for _, r := range d.es.initial() {
		b.send(r, r.body(), rec)
	}
	for i := 0; i < editWarmSteps; i++ {
		r, _ := d.es.next()
		b.send(r, r.body(), rec)
	}
}

func (d *editDriver) run(b *bench, secs float64, part int, rec *recorder) window {
	return b.closedLoop(1, secs, func(int) (request, []byte) {
		r, _ := d.es.next()
		return r, r.body()
	}, rec)
}

func (d *editDriver) bases() []string {
	out := make([]string, len(d.es.docs))
	for i, doc := range d.es.docs {
		out[i] = doc.t.baseName
	}
	return out
}
func (d *editDriver) cold() bool { return false }
func (d *editDriver) describe() string {
	return fmt.Sprintf("closed loop, 1 client; literal edits over %d multi-procedure programs, every %dth step a resubmit",
		len(d.es.docs), editResubmitEvery)
}
