package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// pinToOneCPU restricts every thread of this process, and so every thread it
// starts later, to the highest-numbered CPU it may run on, and returns that
// CPU. GOMAXPROCS is untouched: the runtime sized it before main began.
//
// The load is latency-bound and uses 0.3–0.45 cores. Left alone on a 2-vCPU
// virtual machine, the kernel either packs the runtime's threads onto one
// vCPU or spreads them over both, and keeps that choice for the life of the
// process; spread, every goroutine wake-up crosses vCPUs and pays the idle
// exit of the target, which costs 20–25 % of commit_tps on identical inputs
// (README.md, "Repeatability"). Pinning makes the packed placement the only
// one, so a run measures the program and not where the kernel put it.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // 1024 CPUs, the kernel's default cpumask size
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return -1, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("sched_getaffinity: empty mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// A thread inherits the mask of the thread that creates it, so two passes
	// over the task list also catch one created while the first pass ran.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return -1, fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return cpu, nil
}

// stolenTime is how long, since boot, the hypervisor has kept the given CPU
// from this guest while the guest had work for it. With every thread pinned
// to that CPU, stolen time is time the whole process stood still, so the
// end-to-end metrics discount it (README.md, "Stolen time"). It reads 0 for
// cpu < 0 (the process is not pinned) and where /proc/stat cannot say.
func stolenTime(cpu int) time.Duration {
	if cpu < 0 {
		return 0
	}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(data, cpu)
}

// parseSteal extracts one CPU's steal column from the text of /proc/stat:
//
//	cpuN user nice system idle iowait irq softirq steal guest guest_nice
func parseSteal(stat []byte, cpu int) time.Duration {
	const userHZ = 100 // /proc/stat counts in 1/100 s on every architecture
	prefix := []byte("cpu" + strconv.Itoa(cpu) + " ")
	for _, line := range bytes.Split(stat, []byte("\n")) {
		if f := bytes.Fields(line); bytes.HasPrefix(line, prefix) && len(f) > 8 {
			ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
			if err != nil {
				return 0
			}
			return time.Duration(ticks) * time.Second / userHZ
		}
	}
	return 0
}
