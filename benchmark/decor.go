package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/transport"
)

// decor.go holds the decorators the traced run puts at the boundaries the
// benchmark owns: around the node's Transport, around the logd server's
// http.Handler, and under the logd client's http.Client. Spans inside the
// program are a later issue.

// tracedTransport times every Send and counts the bytes. Send
// runs on the node's protocol goroutine only, so the sample slice needs no
// lock while the node runs; read it after the node has closed.
type tracedTransport struct {
	inner totem.Transport

	sends   atomic.Uint64
	bytes   atomic.Uint64
	busyNs  atomic.Int64
	samples []float64 // every 8th Send's duration in ns
}

func traceTransport(inner totem.Transport) *tracedTransport {
	return &tracedTransport{inner: inner}
}

func (t *tracedTransport) Networks() int                    { return t.inner.Networks() }
func (t *tracedTransport) Packets() <-chan transport.Packet { return t.inner.Packets() }
func (t *tracedTransport) Close() error                     { return t.inner.Close() }
func (t *tracedTransport) RegisterMetrics(r *metrics.Registry) {
	if ms, ok := t.inner.(transport.MetricSource); ok {
		ms.RegisterMetrics(r)
	}
}

// Flush forwards the runtime's end-of-batch hook; without it the batched
// wire path would fall back to its deadline timer and the traced run would
// measure a different program.
func (t *tracedTransport) Flush() {
	if bs, ok := t.inner.(transport.BatchSender); ok {
		bs.Flush()
	}
}

func (t *tracedTransport) Send(network int, dest totem.NodeID, data []byte) error {
	start := time.Now()
	err := t.inner.Send(network, dest, data)
	d := time.Since(start)
	n := t.sends.Add(1)
	t.bytes.Add(uint64(len(data)))
	t.busyNs.Add(int64(d))
	if n%8 == 0 {
		t.samples = append(t.samples, float64(d))
	}
	return err
}

// handlerSpan is one timed /v1/append request as the server saw it.
type handlerSpan struct {
	client     string
	seq        string
	start, end time.Time
	status     int
}

// tracedHandler times /v1/append requests through the wrapped handler and
// passes everything else straight through.
type tracedHandler struct {
	inner http.Handler

	mu    sync.Mutex
	spans []handlerSpan
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/append" {
		h.inner.ServeHTTP(w, r)
		return
	}
	q := r.URL.Query()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	h.inner.ServeHTTP(sw, r)
	end := time.Now()
	h.mu.Lock()
	h.spans = append(h.spans, handlerSpan{q.Get("client"), q.Get("seq"), start, end, sw.status})
	h.mu.Unlock()
}

func (h *tracedHandler) take() []handlerSpan {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.spans
	h.spans = nil
	return out
}

// countingRoundTripper counts /v1/append attempts and their refusals at
// the client boundary. It is in place on untraced runs too (two atomic
// adds per request): the rejected share must be zero on every logd run,
// not only on traced ones.
type countingRoundTripper struct {
	inner http.RoundTripper
	ctr   *rtCounters
}

// rtCounters is shared by every writer and its countingRoundTripper.
type rtCounters struct {
	acked       atomic.Uint64 // appends acknowledged to a writer
	attempts    atomic.Uint64
	rejected    atomic.Uint64 // 425, 429, 503
	rateLimited atomic.Uint64 // 429 alone
	noResponse  atomic.Uint64 // transport error, no status at all
}

func (c *countingRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.inner.RoundTrip(r)
	if r.URL.Path != "/v1/append" {
		return resp, err
	}
	c.ctr.attempts.Add(1)
	if err != nil {
		c.ctr.noResponse.Add(1)
		return resp, err
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		c.ctr.rateLimited.Add(1)
		c.ctr.rejected.Add(1)
	case http.StatusTooEarly, http.StatusServiceUnavailable:
		c.ctr.rejected.Add(1)
	}
	return resp, err
}
