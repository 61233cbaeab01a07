package logd_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	totem "github.com/totem-rrp/totem"
	"github.com/totem-rrp/totem/internal/logd"
	"github.com/totem-rrp/totem/internal/logd/logtest"
)

// startSoloNode boots a single-member ring on an in-memory hub.
func startSoloNode(t *testing.T) *totem.Node {
	t.Helper()
	hub := totem.NewMemHub(2)
	tr, err := hub.Join(1)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	node, err := totem.NewNode(totem.Config{ID: 1, Networks: 2, Replication: totem.Passive}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(func() { node.Close() })
	deadline := time.Now().Add(10 * time.Second)
	for !node.Operational() {
		if time.Now().After(deadline) {
			t.Fatalf("solo ring did not form: state %s", node.StateName())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return node
}

// startSoloServer boots the full single-node in-memory stack: ring node,
// durable store in a temp dir, logd server, HTTP front door.
func startSoloServer(t *testing.T, opt logd.ServerOptions) (*logd.Server, *httptest.Server) {
	t.Helper()
	node := startSoloNode(t)
	store, err := logd.OpenStore(t.TempDir(), logd.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	srv, err := logd.NewServer(node, store, opt)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Live() {
		if time.Now().After(deadline) {
			t.Fatal("server did not go live")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return srv, hs
}

// TestSoloServerConformance runs the model-checked conformance table
// against the single-node in-memory server — the "sim" half of the
// sim-vs-live differential (the live half is in internal/live).
func TestSoloServerConformance(t *testing.T) {
	_, hs := startSoloServer(t, logd.ServerOptions{NodeID: "solo"})
	ck := logtest.Run(t, []string{hs.URL}, logtest.RunOptions{Clients: 4, Appends: 25, ReadCheck: true})
	ck.Verify(t, context.Background(), hs.URL)
}

func postAppend(t *testing.T, base, client string, seq uint64, payload string) (*http.Response, string) {
	t.Helper()
	u := fmt.Sprintf("%s/v1/append?client=%s&seq=%d", base, client, seq)
	resp, err := http.Post(u, "application/octet-stream", strings.NewReader(payload))
	if err != nil {
		t.Fatalf("POST append: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func TestAppendSemantics(t *testing.T) {
	_, hs := startSoloServer(t, logd.ServerOptions{NodeID: "solo", MaxRecordBytes: 1024})

	// Validation failures are fatal 4xx with retryable=false bodies.
	for name, f := range map[string]func() (*http.Response, string){
		"missing client": func() (*http.Response, string) { return postAppend(t, hs.URL, "", 1, "p") },
		"zero seq":       func() (*http.Response, string) { return postAppend(t, hs.URL, "c", 0, "p") },
		"reserved id":    func() (*http.Response, string) { return postAppend(t, hs.URL, "%00sync/x", 1, "p") },
	} {
		resp, body := f()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", name, resp.StatusCode, body)
		}
		var eb logd.ErrorBody
		if json.Unmarshal([]byte(body), &eb) != nil || eb.Retryable {
			t.Fatalf("%s: error body %s must be fatal", name, body)
		}
	}
	if resp, _ := postAppend(t, hs.URL, "c", 1, strings.Repeat("z", 2048)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized payload: status %d", resp.StatusCode)
	}

	// A committed append, then the idempotent retry fast path.
	resp, body := postAppend(t, hs.URL, "c", 1, "payload")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d body %s", resp.StatusCode, body)
	}
	var first logd.AppendResponse
	if err := json.Unmarshal([]byte(body), &first); err != nil {
		t.Fatalf("decoding ack: %v", err)
	}
	resp, body = postAppend(t, hs.URL, "c", 1, "payload")
	var retry logd.AppendResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(body), &retry) != nil || retry.Offset != first.Offset {
		t.Fatalf("retry of acked seq: status %d body %s, want offset %d", resp.StatusCode, body, first.Offset)
	}

	// A seq below the acked watermark is a fatal conflict.
	if resp, _ = postAppend(t, hs.URL, "c", 2, "p2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("seq 2: status %d", resp.StatusCode)
	}
	if resp, _ = postAppend(t, hs.URL, "c", 1, "stale"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale seq: status %d, want 409", resp.StatusCode)
	}
}

func TestTailLongPoll(t *testing.T) {
	_, hs := startSoloServer(t, logd.ServerOptions{NodeID: "solo"})

	type tailResult struct {
		rr  logd.ReadResponse
		err error
	}
	done := make(chan tailResult, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/v1/tail?from=0&wait_ms=8000")
		if err != nil {
			done <- tailResult{err: err}
			return
		}
		defer resp.Body.Close()
		var rr logd.ReadResponse
		done <- tailResult{rr: rr, err: json.NewDecoder(resp.Body).Decode(&rr)}
	}()
	time.Sleep(100 * time.Millisecond) // let the tail park
	if resp, body := postAppend(t, hs.URL, "w", 1, "wake"); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("tail: %v", res.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tail long-poll never woke")
	}
}

func TestRateLimitRefusal(t *testing.T) {
	_, hs := startSoloServer(t, logd.ServerOptions{
		NodeID:    "solo",
		Admission: logd.AdmissionOptions{RatePerSec: 0.001, Burst: 1},
	})
	if resp, body := postAppend(t, hs.URL, "c", 1, "p"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first append: %d %s", resp.StatusCode, body)
	}
	resp, body := postAppend(t, hs.URL, "c", 2, "p")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second append: status %d body %s, want 429", resp.StatusCode, body)
	}
	var eb logd.ErrorBody
	if json.Unmarshal([]byte(body), &eb) != nil || !eb.Retryable || eb.Kind != logd.ErrKindRateLimited {
		t.Fatalf("429 body %s must be retryable rate-limited", body)
	}
}

func TestCatchingUpRefusal(t *testing.T) {
	node := startSoloNode(t)
	store, err := logd.OpenStore(t.TempDir(), logd.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	// A peer that never answers keeps the member in catch-up.
	srv, err := logd.NewServer(node, store, logd.ServerOptions{
		NodeID:           "blocked",
		Peers:            []string{"http://127.0.0.1:1"},
		ColdStartTimeout: time.Hour,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	resp, body := postAppend(t, hs.URL, "c", 1, "p")
	if resp.StatusCode != http.StatusTooEarly {
		t.Fatalf("append while catching up: status %d body %s, want 425", resp.StatusCode, body)
	}
	resp, err2 := http.Get(hs.URL + "/v1/sync?client=x&seq=1")
	if err2 != nil || resp.StatusCode != http.StatusTooEarly {
		t.Fatalf("sync while catching up: %v status %d, want 425", err2, resp.StatusCode)
	}
	resp.Body.Close()
	// Reads still serve the durable prefix (empty here) while catching up.
	resp, err2 = http.Get(hs.URL + "/v1/read?from=0")
	if err2 != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("read while catching up: %v status %d, want 200", err2, resp.StatusCode)
	}
	resp.Body.Close()
}

func TestServerRequiresOneShard(t *testing.T) {
	hub := totem.NewMemHub(2)
	tr, err := hub.Join(1)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	node, err := totem.NewNode(totem.Config{ID: 1, Networks: 2, Replication: totem.Passive, Shards: 2}, tr)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()
	store, err := logd.OpenStore(t.TempDir(), logd.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer store.Close()
	if _, err := logd.NewServer(node, store, logd.ServerOptions{NodeID: "x"}); err == nil {
		t.Fatal("NewServer must reject a node with Shards > 1")
	}
}
