package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// bench is one in-process silserver (default options) on a loopback
// listener, plus the client that drives it over at most two connections.
type bench struct {
	srv    *http.Server
	done   chan error
	url    string
	tr     *http.Transport
	client *http.Client
	tracer *tracer // nil unless the handler is wrapped for tracing
}

func startBench(tracer *tracer) (*bench, error) {
	var h http.Handler = service.NewHandler(service.New(service.Options{}))
	if tracer != nil {
		h = tracer.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	b := &bench{
		srv:    &http.Server{Handler: h},
		done:   make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		tr:     tr,
		client: &http.Client{Transport: tr},
		tracer: tracer,
	}
	go func() { b.done <- b.srv.Serve(ln) }()
	return b, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (b *bench) stop() error {
	b.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// reply is what the benchmark keeps of one /v1/analyze response.
type reply struct {
	status int
	hit    bool
	fp     string
	sum    [32]byte
	body   []byte
}

const reqIDHeader = "X-Perfbench-Request"

func (b *bench) analyze(body []byte, reqID int64) (reply, error) {
	hr, err := http.NewRequest(http.MethodPost, b.url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if reqID != 0 {
		hr.Header.Set(reqIDHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := b.client.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("read body: %w", err)
	}
	return reply{
		status: resp.StatusCode,
		hit:    resp.Header.Get(service.CacheHeader) == "hit",
		fp:     resp.Header.Get(service.FingerprintHeader),
		sum:    sha256.Sum256(data),
		body:   data,
	}, nil
}

func (b *bench) get(path string) ([]byte, error) {
	resp, err := b.client.Get(b.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}

// counters is one scrape of the server's own accounting: the /v1/stats
// document read by field name and the /v1/metrics phase sums. Fields a
// server build does not expose stay absent from the maps.
type counters struct {
	stats  map[string]float64 // flattened: "summary_store.hits"
	phases map[string]phase   // by phase label
}

type phase struct {
	sum   float64 // seconds
	count float64
}

func (b *bench) scrape() (counters, error) {
	c := counters{stats: map[string]float64{}, phases: map[string]phase{}}
	data, err := b.get("/v1/stats")
	if err != nil {
		return c, err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return c, fmt.Errorf("decode /v1/stats: %w", err)
	}
	flatten("", doc, c.stats)
	data, err = b.get("/v1/metrics")
	if err != nil {
		return c, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		for suffix, set := range map[string]func(*phase, float64){
			"sil_phase_seconds_sum{":   func(p *phase, v float64) { p.sum += v },
			"sil_phase_seconds_count{": func(p *phase, v float64) { p.count += v },
		} {
			if !strings.HasPrefix(line, suffix) {
				continue
			}
			name := label(line, "phase")
			sp := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if name == "" || err != nil {
				continue
			}
			p := c.phases[name]
			set(&p, v)
			c.phases[name] = p
		}
	}
	return c, sc.Err()
}

func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			flatten(prefix+k+".", e, out)
		}
	case float64:
		out[strings.TrimSuffix(prefix, ".")] = x
	}
}

// label extracts a Prometheus label value from one exposition line.
func label(line, key string) string {
	i := strings.Index(line, key+"=\"")
	if i < 0 {
		return ""
	}
	rest := line[i+len(key)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// delta returns after-before for one stats field and whether the server
// exposes it.
func delta(before, after counters, field string) (float64, bool) {
	a, ok := after.stats[field]
	if !ok {
		return 0, false
	}
	return a - before.stats[field], true
}

func phaseDelta(before, after counters, name string) phase {
	a, b := after.phases[name], before.phases[name]
	return phase{sum: a.sum - b.sum, count: a.count - b.count}
}
