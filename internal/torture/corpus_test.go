package torture

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCorpus replays every pinned repro under corpus/ and holds it to its
// recorded expectation. Two kinds of files live there:
//
//   - chaos-*.json re-introduce a known-fixed bug via chaos flags; the
//     checker must catch it with the recorded invariant (mutation tests —
//     they prove the harness can still see the bug class).
//   - fixed-*.json are minimal programs that once violated an invariant
//     before their protocol bug was fixed; they must now run clean
//     (regression pins for the fixes themselves).
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob("corpus/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("corpus/ is empty — the pinned repros are part of the test suite")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			r, err := LoadRepro(file)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Execute(r.Program, Options{Chaos: r.Chaos})
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case r.Expect == "" && res.Violation != nil:
				t.Fatalf("pinned-clean program violated %v\ntrace tail:\n%s", res.Violation, tail(res, 30))
			case r.Expect != "" && res.Violation == nil:
				t.Fatalf("chaos canary ran clean; the checker no longer catches invariant %q", r.Expect)
			case r.Expect != "" && res.Violation.Invariant != r.Expect:
				t.Fatalf("chaos canary failed %q, pinned expectation is %q", res.Violation.Invariant, r.Expect)
			}
		})
	}
}

// TestCorpusReplaysAreDeterministic re-executes one pinned chaos repro
// twice and requires byte-for-byte identical trace tails — the property
// that makes a saved repro worth anything.
func TestCorpusReplaysAreDeterministic(t *testing.T) {
	const file = "corpus/chaos-held-token-leak.json"
	if _, err := os.Stat(file); err != nil {
		t.Skip("canonical chaos repro missing")
	}
	r, err := LoadRepro(file)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Execute(r.Program, Options{Chaos: r.Chaos})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(r.Program, Options{Chaos: r.Chaos})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.TraceTail, b.TraceTail) {
		t.Fatal("replaying the same repro produced different traces")
	}
	if !reflect.DeepEqual(a.Violation, b.Violation) {
		t.Fatalf("violations differ across replays: %v vs %v", a.Violation, b.Violation)
	}
}

// TestCorpusTracesPinned holds two fault-heavy programs — an active one
// and a passive one, full of timer expiries, token losses and membership
// changes — to the exact event streams the closure-based simulator
// scheduler produced: event count, FNV-64a of every formatted trace line,
// and deliveries. Unlike the throughput pins, these see the order in
// which simultaneous timer, packet and CPU-slot events run. A change
// that means to alter protocol behaviour re-records them; a refactor of
// the scheduler or the machines must leave them alone.
func TestCorpusTracesPinned(t *testing.T) {
	for _, pin := range []struct {
		file      string
		events    int
		hash      uint64
		delivered uint64
	}{
		{"corpus/fixed-membership-livelock.json", 285973, 0x62dccd585d80cee4, 13713},
		{"corpus/chaos-held-token-leak.json", 188121, 0x7d3ce46457686e55, 16000},
	} {
		t.Run(filepath.Base(pin.file), func(t *testing.T) {
			r, err := LoadRepro(pin.file)
			if err != nil {
				t.Fatal(err)
			}
			// No chaos: the canary's program, run as the fixed protocol.
			res, err := Execute(r.Program, Options{TraceCap: 300_000})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, line := range res.TraceTail {
				h.Write([]byte(line))
				h.Write([]byte{'\n'})
			}
			if len(res.TraceTail) != pin.events || h.Sum64() != pin.hash || res.Delivered != pin.delivered {
				t.Fatalf("%d events, hash %#x, %d delivered; pinned %d, %#x, %d",
					len(res.TraceTail), h.Sum64(), res.Delivered, pin.events, pin.hash, pin.delivered)
			}
		})
	}
}
