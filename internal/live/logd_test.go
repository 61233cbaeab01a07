package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/logd/logtest"
	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/logdclient"
)

func newTestCluster(t *testing.T, nodes int) *LogdCluster {
	t.Helper()
	c, err := NewLogdCluster(LogdClusterOptions{
		Nodes: nodes,
		Dir:   t.TempDir(),
		Logf:  t.Logf,
	})
	if err != nil {
		t.Fatalf("NewLogdCluster: %v", err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitLive(30 * time.Second); err != nil {
		t.Fatalf("WaitLive: %v", err)
	}
	return c
}

// verifyEverywhere checks the conformance table against every member and
// that all members hold the byte-identical log.
func verifyEverywhere(t *testing.T, c *LogdCluster, ck *logtest.Checker) {
	t.Helper()
	if err := c.WaitConverged(30 * time.Second); err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	ctx := context.Background()
	var ref []string
	for i, ep := range c.Endpoints() {
		ck.Verify(t, ctx, ep)
		log := logtest.FetchAll(t, ctx, ep)
		flat := make([]string, len(log))
		for j, rec := range log {
			flat[j] = fmt.Sprintf("%d|%d|%s|%d|%s", rec.Offset, rec.Kind, rec.Client, rec.Seq, rec.Payload)
		}
		if i == 0 {
			ref = flat
			continue
		}
		if len(flat) != len(ref) {
			t.Fatalf("member %d log length %d != member 0 length %d", i, len(flat), len(ref))
		}
		for j := range flat {
			if flat[j] != ref[j] {
				t.Fatalf("member %d offset %d: %s != member 0's %s", i, j, flat[j], ref[j])
			}
		}
	}
}

// TestLogdLiveConformance runs the model-checked conformance table
// against a 4-node live ring — the live half of the sim-vs-live
// differential whose sim half runs in internal/logd.
func TestLogdLiveConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("live logd conformance is not a -short test")
	}
	c := newTestCluster(t, 4)
	ck := logtest.Run(t, c.Endpoints(), logtest.RunOptions{Clients: 4, Appends: 20})
	verifyEverywhere(t, c, ck)
}

// tortureLoad runs sustained client traffic until stop closes, recording
// every acknowledgement. Failed appends (mid-crash windows) are counted,
// not fatal: the conformance checker judges only what was acknowledged.
func tortureLoad(t *testing.T, c *LogdCluster, writers int, stop <-chan struct{}) (*logtest.Checker, *sync.WaitGroup, *atomic.Uint64, *atomic.Uint64) {
	t.Helper()
	ck := &logtest.Checker{}
	var wg sync.WaitGroup
	var acked, failed atomic.Uint64
	eps := c.Endpoints()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("torture-%d", w)
			rot := append(append([]string(nil), eps[w%len(eps):]...), eps[:w%len(eps)]...)
			cl, err := logdclient.New(logdclient.Options{
				Endpoints:   rot,
				ID:          id,
				MaxAttempts: 10,
				BaseBackoff: 10 * time.Millisecond,
				MaxBackoff:  300 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				payload := fmt.Sprintf("%s:%d", id, i)
				off, err := cl.Append(ctx, []byte(payload))
				cancel()
				if err != nil {
					if errors.Is(err, context.Canceled) {
						return
					}
					failed.Add(1)
					continue
				}
				seq, _ := cl.LastAcked()
				ck.Acked(id, seq, off, payload)
				acked.Add(1)
			}
		}(w)
	}
	return ck, &wg, &acked, &failed
}

// TestLogdCrashRecoveryTorture is the crash-recovery satellite: kill -9
// one member mid-stream under sustained load, restart it, and prove the
// recovered log replays segments+snapshot to the exact acked prefix with
// zero lost and zero duplicate appends, while clients fail over
// idempotently.
func TestLogdCrashRecoveryTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery torture is not a -short test")
	}
	c := newTestCluster(t, 4)
	stop := make(chan struct{})
	ck, wg, acked, failed := tortureLoad(t, c, 4, stop)

	time.Sleep(1 * time.Second) // records flowing
	preKill := acked.Load()
	t.Logf("killing member 1 (%d acks so far)", preKill)
	c.Kill(1)
	time.Sleep(1500 * time.Millisecond) // load continues through failover

	t.Logf("restarting member 1 (%d acks, %d failures)", acked.Load(), failed.Load())
	if err := c.Restart(1); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := c.WaitLive(60 * time.Second); err != nil {
		t.Fatalf("restarted member never caught up: %v", err)
	}
	time.Sleep(1 * time.Second) // load continues against the healed cluster
	close(stop)
	wg.Wait()

	if acked.Load() <= preKill {
		t.Fatalf("no appends acknowledged after the kill (%d total)", acked.Load())
	}
	st := c.Store(1)
	if st == nil || !st.Recovered() {
		t.Fatal("restarted member did not recover from stable storage")
	}
	t.Logf("recovery report: %+v; %d acks, %d transient failures", st.RecoveryReport(), acked.Load(), failed.Load())
	verifyEverywhere(t, c, ck)
}

// TestLogdUnderFaultsSoak is the nightly soak: sustained client load
// through a loss burst and a forced membership change (kill + restart),
// with full conformance verification at the end.
func TestLogdUnderFaultsSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("logd soak is not a -short test")
	}
	c := newTestCluster(t, 4)
	stop := make(chan struct{})
	ck, wg, acked, failed := tortureLoad(t, c, 6, stop)

	time.Sleep(1 * time.Second)

	// Phase 1: loss burst on network 0 — the redundant network carries
	// the ring through it.
	t.Log("soak: loss burst p=0.3 on network 0")
	c.Netem().SetLoss(0, 0.3)
	time.Sleep(2 * time.Second)
	c.Netem().SetLoss(0, 0)

	// Phase 2: forced membership change under load.
	t.Logf("soak: membership change (kill+restart member 2); %d acks", acked.Load())
	c.Kill(2)
	time.Sleep(1500 * time.Millisecond)
	if err := c.Restart(2); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := c.WaitLive(60 * time.Second); err != nil {
		t.Fatalf("cluster did not heal: %v", err)
	}

	// Phase 3: overlapping faults — loss burst while the ring re-forms
	// around a second membership change.
	t.Log("soak: loss burst + membership change together")
	c.Netem().SetLoss(1, 0.2)
	c.Kill(3)
	time.Sleep(1500 * time.Millisecond)
	c.Netem().SetLoss(1, 0)
	if err := c.Restart(3); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := c.WaitLive(60 * time.Second); err != nil {
		t.Fatalf("cluster did not heal after overlapping faults: %v", err)
	}
	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()

	if acked.Load() == 0 {
		t.Fatal("soak acknowledged nothing")
	}
	t.Logf("soak: %d acks, %d transient failures", acked.Load(), failed.Load())
	verifyEverywhere(t, c, ck)
}

// TestLogdColdStartAfterSplitBoot restarts the whole cluster with every
// member cut off from the others, so each orders its sync marker in a
// singleton configuration no other member ever sees, then heals the
// networks before the cold-start timeout. The members' delivery streams
// therefore differ from their very first entry; every member must still
// hold the identical log.
func TestLogdColdStartAfterSplitBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-cluster cold start is not a -short test")
	}
	c := newTestCluster(t, 4)
	logtest.Run(t, c.Endpoints(), logtest.RunOptions{Clients: 2, Appends: 5, Prefix: "before"})
	for i := 0; i < 4; i++ {
		c.Kill(i)
	}
	alone := map[proto.NodeID]int{1: 1, 2: 2, 3: 3, 4: 4}
	for n := 0; n < c.opt.Networks; n++ {
		c.Netem().Partition(n, alone)
	}
	for i := 0; i < 4; i++ {
		if err := c.Restart(i); err != nil {
			t.Fatalf("Restart(%d): %v", i, err)
		}
	}
	time.Sleep(500 * time.Millisecond) // singleton rings order the markers
	for n := 0; n < c.opt.Networks; n++ {
		c.Netem().Partition(n, nil)
	}
	if err := c.WaitLive(60 * time.Second); err != nil {
		t.Fatalf("cluster never went live after the split boot: %v", err)
	}
	ck := logtest.Run(t, c.Endpoints(), logtest.RunOptions{Clients: 2, Appends: 5, Prefix: "after"})
	verifyEverywhere(t, c, ck)
}
