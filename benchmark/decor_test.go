package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/metrics"
	"github.com/totem-rrp/totem/internal/transport"
)

// fakeTransport records what reaches it.
type fakeTransport struct {
	sent       int
	flushed    int
	registered *metrics.Registry
	rx         chan transport.Packet
}

func (f *fakeTransport) Networks() int { return 2 }
func (f *fakeTransport) Send(int, totem.NodeID, []byte) error {
	f.sent++
	return nil
}
func (f *fakeTransport) Packets() <-chan transport.Packet    { return f.rx }
func (f *fakeTransport) Close() error                        { return nil }
func (f *fakeTransport) Flush()                              { f.flushed++ }
func (f *fakeTransport) RegisterMetrics(r *metrics.Registry) { f.registered = r }

func TestTracedTransportForwards(t *testing.T) {
	inner := &fakeTransport{rx: make(chan transport.Packet)}
	tr := traceTransport(inner)
	var asTransport totem.Transport = tr
	if _, ok := asTransport.(transport.BatchSender); !ok {
		t.Fatal("the wrapper hides BatchSender: the runtime would stop flushing per action batch")
	}
	if _, ok := asTransport.(transport.MetricSource); !ok {
		t.Fatal("the wrapper hides MetricSource: the node's registry would lose the udp.* counters")
	}
	tr.Flush()
	if inner.flushed != 1 {
		t.Errorf("Flush reached the inner transport %d times, want 1", inner.flushed)
	}
	reg := metrics.NewRegistry()
	tr.RegisterMetrics(reg)
	if inner.registered != reg {
		t.Error("RegisterMetrics did not reach the inner transport")
	}
	for i := 0; i < 16; i++ {
		if err := tr.Send(0, 2, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if inner.sent != 16 || tr.sends.Load() != 16 || tr.bytes.Load() != 160 {
		t.Errorf("16 sends of 10 bytes: inner saw %d, wrapper counted %d sends / %d bytes", inner.sent, tr.sends.Load(), tr.bytes.Load())
	}
	if len(tr.samples) != 2 {
		t.Errorf("every 8th send is sampled: got %d samples of 16 sends", len(tr.samples))
	}
	if tr.Networks() != 2 || tr.Packets() != (<-chan transport.Packet)(inner.rx) {
		t.Error("Networks/Packets are not the inner transport's")
	}
}

// A node built on the wrapper reports the wire path a node on the bare UDP
// transport reports: the decorator must not change which kernel driver the
// traced run measures.
func TestTracedTransportKeepsWirePath(t *testing.T) {
	gauge := func(wrap bool) (int64, bool) {
		udp, err := transport.NewUDP(transport.UDPConfig{ID: 1, Listen: []string{"127.0.0.1:0", "127.0.0.1:0"}})
		if err != nil {
			t.Fatal(err)
		}
		var tr totem.Transport = udp
		if wrap {
			tr = traceTransport(udp)
		}
		n, err := totem.NewNode(totem.Config{ID: 1, Networks: 2, Replication: totem.Passive, Tune: benchTune}, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		defer n.Close()
		return n.Metrics().Get("udp.wirepath_batch")
	}
	bare, ok1 := gauge(false)
	wrapped, ok2 := gauge(true)
	if !ok1 || !ok2 {
		t.Fatalf("udp.wirepath_batch registered: bare %v, wrapped %v", ok1, ok2)
	}
	if bare != wrapped {
		t.Errorf("udp.wirepath_batch = %d bare, %d behind the wrapper", bare, wrapped)
	}
}

func TestTracedHandlerPreservesStatus(t *testing.T) {
	inner := http.NewServeMux()
	inner.HandleFunc("/v1/append", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("seq") {
		case "1":
			io.WriteString(w, `{"offset":0}`) // implicit 200
		case "2":
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	inner.HandleFunc("/v1/read", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTeapot) })
	h := &tracedHandler{inner: inner}
	srv := httptest.NewServer(h)
	defer srv.Close()

	ctr := &rtCounters{}
	client := &http.Client{Transport: &countingRoundTripper{inner: http.DefaultTransport, ctr: ctr}}
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/append?client=c&seq=1", 200},
		{"/v1/append?client=c&seq=2", 429},
		{"/v1/append?client=c&seq=3", 503},
		{"/v1/read?from=0", 418},
	} {
		resp, err := client.Post(srv.URL+tc.path, "application/octet-stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d through the wrapper, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
	spans := h.take()
	if len(spans) != 3 {
		t.Fatalf("recorded %d append spans, want 3 (reads are not timed)", len(spans))
	}
	for i, want := range []int{200, 429, 503} {
		if spans[i].status != want || spans[i].client != "c" || spans[i].end.Before(spans[i].start) {
			t.Errorf("span %d = %+v, want status %d for client c", i, spans[i], want)
		}
	}
	if a, r, l := ctr.attempts.Load(), ctr.rejected.Load(), ctr.rateLimited.Load(); a != 3 || r != 2 || l != 1 {
		t.Errorf("round tripper counted %d attempts, %d rejected, %d rate-limited; want 3, 2, 1", a, r, l)
	}
}
