package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The reference host — and the acceptance driver's — is a small VM on a
// shared machine. When a vCPU has nothing to run the guest halts it, the
// hypervisor gives the core to another tenant, and the next wake-up (a
// datagram, a timer, a goroutine made runnable on the other CPU) waits for
// the hypervisor to schedule the vCPU again: tens to hundreds of µs that
// depend on what the neighbours are doing, paid at every hop of a request
// that crosses threads. On the workloads that leave the CPUs partly idle
// that is most of what a latency measures — ring-paced-fault's p50 reads
// 430 µs with idling CPUs and 250 µs without on the same build, logd-append
// 1.2 ms and 0.95 ms, and between two sets of runs an hour apart the first
// figure moved by a factor of two while CPU-bound work did not move at all.
//
// So a live run keeps the CPUs from idling, the way a latency benchmark on
// bare metal boots with idle=poll: one child process per CPU spins at
// SCHED_IDLE priority. The scheduler runs an idle-priority task only where
// nothing else is runnable and preempts it the moment anything is, so the
// spinners take no CPU time from the program (its user+sys time falls, for
// want of wake-up work) — they only stop the vCPUs from halting.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// keepCPUsBusy starts one spinner per CPU and returns the function that
// stops them and waits for them, and a note for the run's output. Where the
// CPUs are rationed by a cgroup quota below their number, spinning would eat
// the program's own ration, and no spinner is started.
func keepCPUsBusy() (stop func(), note string) {
	n := runtime.NumCPU()
	if quota := cgroupCPUs(); quota > 0 && quota < float64(n) {
		return func() {}, fmt.Sprintf("CPUs left to idle: a cgroup quota of %.2f CPUs on %d", quota, n)
	}
	exe, err := os.Executable()
	if err != nil {
		return func() {}, fmt.Sprintf("CPUs left to idle: %v", err)
	}
	var kids []*exec.Cmd
	stop = func() {
		for _, k := range kids {
			k.Process.Kill() //nolint:errcheck // already gone is fine
		}
		for _, k := range kids {
			k.Wait() //nolint:errcheck // killed: the error says so
		}
	}
	class := ""
	for i := 0; i < n; i++ {
		// Should this process die without running stop, the child leaves when
		// it finds itself re-parented.
		k := exec.Command(exe, "-spin")
		ready, err := k.StdoutPipe()
		if err == nil {
			err = k.Start()
		}
		if err != nil {
			stop()
			return func() {}, fmt.Sprintf("CPUs left to idle: %v", err)
		}
		kids = append(kids, k)
		// The child names the priority it got before it starts spinning, or
		// leaves without a word if it got none.
		line, err := bufio.NewReader(ready).ReadString('\n')
		if err != nil {
			stop()
			return func() {}, "CPUs left to idle: the sandbox lets a process lower neither its scheduling class nor its nice level"
		}
		class = strings.TrimSpace(line)
	}
	return stop, fmt.Sprintf("CPUs kept from idling by %d spinners at %s priority (see antiidle_linux.go)", n, class)
}

// cgroupCPUs returns the CPU quota of this process's cgroup in CPUs, or 0
// for none (or for a hierarchy this does not know how to read).
func cgroupCPUs() float64 {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil { // v2
		f := strings.Fields(string(b))
		if len(f) == 2 && f[0] != "max" {
			q, _ := strconv.ParseFloat(f[0], 64)
			p, _ := strconv.ParseFloat(f[1], 64)
			if p > 0 {
				return q / p
			}
		}
		return 0
	}
	read := func(name string) float64 { // v1
		b, err := os.ReadFile("/sys/fs/cgroup/cpu/" + name)
		if err != nil {
			return 0
		}
		v, _ := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		return v
	}
	if q, p := read("cpu.cfs_quota_us"), read("cpu.cfs_period_us"); q > 0 && p > 0 {
		return q / p
	}
	return 0
}

// spinUntilOrphaned is the child: it drops its thread to idle priority (to
// the lowest nice level where the sandbox refuses that) and spins until its
// parent is gone.
func spinUntilOrphaned() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	parent := os.Getppid()
	var param struct{ priority int32 }
	class := "SCHED_IDLE"
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
			os.Exit(1) // a spinner at normal priority would compete with the program
		}
		class = "nice 19"
	}
	fmt.Println(class)
	for {
		for until := time.Now().Add(50 * time.Millisecond); time.Now().Before(until); {
		}
		if os.Getppid() != parent {
			return
		}
	}
}
