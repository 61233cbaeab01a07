package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of what the process has consumed.
type procSnap struct {
	at      time.Time
	cpu     time.Duration // user+sys
	mallocs uint64
	gcPause time.Duration
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSnap {
	s := procSnap{at: time.Now(), cpu: cpuTime()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.gcPause = time.Duration(ms.PauseTotalNs)
	return s
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status; 0 where the file does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding dir (for the logd workloads, whose
// fsync cost is the host's, not the program's).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// slice is the width of the slices a measured window is cut into. The
// reference host is a small VM whose neighbours slow it down by a fifth to
// a half for a few hundred milliseconds at a time, every few seconds; a
// window's rate, CPU cost and latency are therefore a quantile of its
// slices' figures (goodSide in stats.go), which such an episode does not
// move, not the figure over the whole window, which it does.
const slice = 250 * time.Millisecond

// sampler reads a cumulative operation count and the process's CPU time at
// every slice boundary of a window.
type sampler struct {
	count func() float64
	poll  *poller
	start time.Time // the first reading's time; the rest is the poller's until stop
	at    []time.Time
	n     []float64
	cpu   []time.Duration
}

// startSampler takes the first reading now; count must be safe to call from
// another goroutine.
func startSampler(count func() float64) *sampler {
	s := &sampler{count: count}
	s.read()
	s.start = s.at[0]
	s.poll = startPoller(slice, s.read)
	return s
}

func (s *sampler) read() {
	s.at = append(s.at, time.Now())
	s.n = append(s.n, s.count())
	s.cpu = append(s.cpu, cpuTime())
}

// stop takes the last reading and returns the window's edges.
func (s *sampler) stop() (w0, w1 time.Time) {
	s.poll.Stop()
	s.read()
	return s.at[0], s.at[len(s.at)-1]
}

// rates returns, per slice, operations per second and µs of CPU per
// operation. A slice too short to mean anything (the last one) or without
// operations is left out of the respective list.
func (s *sampler) rates() (opsPerS, cpuUsPerOp []float64) {
	for i := 1; i < len(s.at); i++ {
		dt, dn := s.at[i].Sub(s.at[i-1]), s.n[i]-s.n[i-1]
		if dt < slice/2 {
			continue
		}
		opsPerS = append(opsPerS, dn/dt.Seconds())
		if dn > 0 {
			cpuUsPerOp = append(cpuUsPerOp, float64(s.cpu[i]-s.cpu[i-1])/1e3/dn)
		}
	}
	return opsPerS, cpuUsPerOp
}

// report sets the window's throughput and CPU cost: the good-side quartile
// of its slices'. bytesPerOp, when positive, turns the rate into the goodput
// the notes state.
func (s *sampler) report(out *outcome, bytesPerOp float64) {
	rate, cpu := s.rates()
	out.set("ops_per_s", percentile(rate, 1-goodSide))
	out.set("cpu_us_per_op", percentile(cpu, goodSide))
	if bytesPerOp > 0 {
		out.note("goodput: %.6g MB/s", percentile(rate, 1-goodSide)*bytesPerOp/1e6)
	}
}

// ops returns the operations counted over the whole window.
func (s *sampler) ops() float64 { return s.n[len(s.n)-1] - s.n[0] }

// poller calls fn at a fixed period until stopped.
type poller struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func startPoller(every time.Duration, fn func()) *poller {
	p := &poller{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return p
}

func (p *poller) Stop() {
	close(p.stop)
	p.wg.Wait()
}
