package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// CPU partitioning. The generator and the servers it measures must not
// share a CPU: when they do, the kernel's placement of a dozen runnable
// threads on a couple of CPUs decides the numbers (measured here: the
// same build, same seed, swings 15-20 % run to run; partitioned, 6-9 %),
// and server CPU time is inflated by the generator's cache and scheduler
// pressure. So the generator re-executes itself bound to the first half
// of the CPUs it may use, and starts every child bound to the second
// half. With a single CPU there is nothing to split and both share it.

// cpuSet is a kernel affinity mask (1024 CPUs).
type cpuSet [16]uint64

func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }
func (s *cpuSet) add(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }

func (s *cpuSet) list() []int {
	var out []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

func setOf(cpus []int) *cpuSet {
	var s cpuSet
	for _, c := range cpus {
		s.add(c)
	}
	return &s
}

// threadAffinity reads the calling thread's mask.
func threadAffinity() (*cpuSet, error) {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return &s, nil
}

// setThreadAffinity binds the calling thread; threads and processes it
// creates afterwards inherit the mask.
func setThreadAffinity(s *cpuSet) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// serverCPUsEnv carries the servers' CPU list across the re-exec and
// marks the process as already partitioned.
const serverCPUsEnv = "HYREC_BENCH_SERVER_CPUS"

// partitionCPUs returns the CPUs children are to run on (nil = no
// partition). On first entry it splits the allowed CPUs and re-executes
// the process bound to the generator's half, so every runtime thread of
// the new image — and GOMAXPROCS — is confined from its first
// instruction; the re-executed process finds its answer in the
// environment.
func partitionCPUs() ([]int, error) {
	if v, ok := os.LookupEnv(serverCPUsEnv); ok {
		var cpus []int
		for _, f := range strings.Split(v, ",") {
			if f == "" {
				continue
			}
			c, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("%s=%q: %w", serverCPUsEnv, v, err)
			}
			cpus = append(cpus, c)
		}
		return cpus, nil
	}
	runtime.LockOSThread() // the mask set below must be the one exec inherits
	defer runtime.UnlockOSThread()
	all, err := threadAffinity()
	if err != nil {
		return nil, err
	}
	cpus := all.list()
	if len(cpus) < 2 {
		return nil, nil
	}
	gen, srv := cpus[:len(cpus)/2], cpus[len(cpus)/2:]
	if err := setThreadAffinity(setOf(gen)); err != nil {
		return nil, err
	}
	var list []string
	for _, c := range srv {
		list = append(list, strconv.Itoa(c))
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	env := append(os.Environ(), serverCPUsEnv+"="+strings.Join(list, ","))
	return nil, syscall.Exec(exe, os.Args, env) // only returns on failure
}

// startOn starts cmd bound to cpus (nil = inherit): the forking thread
// takes the mask for the duration of the fork, and the child inherits
// it.
func startOn(cpus []int, start func() error) error {
	if len(cpus) == 0 {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := threadAffinity()
	if err != nil {
		return err
	}
	if err := setThreadAffinity(setOf(cpus)); err != nil {
		return err
	}
	startErr := start()
	if err := setThreadAffinity(old); err != nil {
		// This thread is now stuck on the servers' CPUs; never hand it
		// back to the scheduler.
		runtime.LockOSThread()
		return err
	}
	return startErr
}
