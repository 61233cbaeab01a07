package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestCommittedReportRoundTrips pins the report format: the committed
// BENCH_hotpath.json decodes into HotPathReport and re-encodes to the same
// bytes, so no section or metric is dropped or renamed on the way through.
func TestCommittedReportRoundTrips(t *testing.T) {
	want, err := os.ReadFile("../../BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep HotPathReport
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Micro) == 0 || len(rep.Figure6) == 0 {
		t.Errorf("committed report has %d micro and %d figure6_4nodes points, want both sections", len(rep.Micro), len(rep.Figure6))
	}
	var got bytes.Buffer
	if err := WriteHotPathJSON(&got, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("BENCH_hotpath.json does not re-encode byte-identically (%d bytes in, %d out)", len(want), got.Len())
	}
}
