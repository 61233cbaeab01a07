package bench

import (
	"fmt"
	"testing"
	"time"

	"github.com/totem-rrp/totem/internal/proto"
	"github.com/totem-rrp/totem/internal/sim"
)

// gridPin is one Figure 6/8 grid cell's exact result at a 100 ms Measure.
type gridPin struct {
	style           string
	msgLen          int
	lossy           bool
	msgsPerSec      float64
	kbytesPerSec    float64
	retransmissions uint64
}

// gridPins were recorded from the closure-based scheduler the typed
// simulator events replaced. The simulator is deterministic, so any
// change in event order — which event pops first among simultaneous
// ones, when a busy CPU's slot begins, which frame a receiver sees — moves
// at least one of these numbers. The lossy cells (2 % loss per frame and
// receiver) exercise retransmission, where the order matters most.
var gridPins = []gridPin{
	{"none", 100, false, 21760, 2125, 0},
	{"none", 700, false, 15300, 10458.984375, 0},
	{"none", 1000, false, 10120, 9882.8125, 0},
	{"none", 1400, false, 7640, 10445.3125, 0},
	{"none", 10000, false, 1080, 10546.875, 0},
	{"active", 100, false, 20480, 2000, 0},
	{"active", 700, false, 12900, 8818.359375, 0},
	{"active", 1000, false, 8780, 8574.21875, 0},
	{"active", 1400, false, 7430, 10158.203125, 0},
	{"active", 10000, false, 1020, 9960.9375, 0},
	{"passive", 100, false, 21760, 2125, 0},
	{"passive", 700, false, 16000, 10937.5, 0},
	{"passive", 1000, false, 12200, 11914.0625, 0},
	{"passive", 1400, false, 11920, 16296.875, 0},
	{"passive", 10000, false, 1760, 17187.5, 0},
	{"none", 1000, true, 7580, 7402.34375, 54},
	{"active", 1000, true, 7930, 7744.140625, 1},
	{"passive", 1000, true, 2300, 2246.09375, 17},
}

// TestFigureGridPinned runs every Figure 6/8 grid cell (4 nodes; none on
// one network, active and passive on two; 100–10 000 B) at a short
// Measure and requires the exact recorded results.
func TestFigureGridPinned(t *testing.T) {
	styles := map[string]struct {
		networks int
		style    proto.ReplicationStyle
	}{
		"none":    {1, proto.ReplicationNone},
		"active":  {2, proto.ReplicationActive},
		"passive": {2, proto.ReplicationPassive},
	}
	for _, p := range gridPins {
		name := fmt.Sprintf("%s/%dB", p.style, p.msgLen)
		if p.lossy {
			name += "/lossy"
		}
		t.Run(name, func(t *testing.T) {
			st := styles[p.style]
			e := Experiment{
				Name: name, Nodes: 4, Networks: st.networks, Style: st.style,
				MsgLen: p.msgLen, Measure: 100 * time.Millisecond, Seed: 1,
			}
			if p.lossy {
				e.Net = sim.DefaultNetworkParams()
				e.Net.LossProb = 0.02
			}
			r, err := Run(e)
			if err != nil {
				t.Fatal(err)
			}
			if r.MsgsPerSec != p.msgsPerSec || r.KBytesPerSec != p.kbytesPerSec || r.Retransmissions != p.retransmissions {
				t.Fatalf("got %v msgs/s, %v KB/s, %d retransmissions; pinned %v, %v, %d",
					r.MsgsPerSec, r.KBytesPerSec, r.Retransmissions, p.msgsPerSec, p.kbytesPerSec, p.retransmissions)
			}
		})
	}
}
