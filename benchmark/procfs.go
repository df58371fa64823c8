package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Server cost is read from outside the server: the kernel's per-process
// accounting under /proc, sampled at window start and end. Nothing the
// server reports about itself enters an end-to-end metric.

// clockTick is the unit of utime/stime in /proc/<pid>/stat. Linux fixes
// USER_HZ at 100 on every architecture Go supports.
const clockTickUS = 10_000

// procUsage is one sample of a process's cumulative cost.
type procUsage struct {
	cpuUS   int64 // utime+stime
	ioBytes int64 // rchar+wchar: every read/write syscall, sockets included
	hwmKB   int64 // VmHWM: peak resident set
}

func (a procUsage) add(b procUsage) procUsage {
	return procUsage{a.cpuUS + b.cpuUS, a.ioBytes + b.ioBytes, a.hwmKB + b.hwmKB}
}

// errNoProcfs makes a non-Linux host fail loudly instead of reporting
// zero server cost.
var errNoProcfs = errors.New("benchmark: /proc process accounting is unavailable (Linux only); server_cpu/io/rss cannot be measured")

func checkProcfs() error {
	if runtime.GOOS != "linux" {
		return errNoProcfs
	}
	if _, err := sampleProc(os.Getpid()); err != nil {
		return fmt.Errorf("%w: %v", errNoProcfs, err)
	}
	return nil
}

// sampleProc reads pid's accounting files.
func sampleProc(pid int) (procUsage, error) {
	var u procUsage
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return u, err
	}
	if u.cpuUS, err = parseStatCPU(string(stat)); err != nil {
		return u, err
	}
	io, err := os.ReadFile(dir + "/io")
	if err != nil {
		return u, err
	}
	if u.ioBytes, err = parseIOBytes(string(io)); err != nil {
		return u, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return u, err
	}
	u.hwmKB, err = parseStatusHWM(string(status))
	return u, err
}

// sampleProcs sums the accounting of several processes.
func sampleProcs(pids []int) (procUsage, error) {
	var sum procUsage
	for _, pid := range pids {
		u, err := sampleProc(pid)
		if err != nil {
			return sum, fmt.Errorf("sample pid %d: %w", pid, err)
		}
		sum = sum.add(u)
	}
	return sum, nil
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from
// /proc/<pid>/stat in microseconds. The command name (field 2) may
// contain spaces and parentheses, so fields are counted from the last
// ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("procfs: stat: no command field")
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat: %d fields after command, want >= 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stat stime: %w", err)
	}
	return (utime + stime) * clockTickUS, nil
}

// parseIOBytes extracts rchar+wchar from /proc/<pid>/io.
func parseIOBytes(io string) (int64, error) {
	r, err := procField(io, "rchar:")
	if err != nil {
		return 0, err
	}
	w, err := procField(io, "wchar:")
	if err != nil {
		return 0, err
	}
	return r + w, nil
}

// parseStatusHWM extracts VmHWM (kB) from /proc/<pid>/status.
func parseStatusHWM(status string) (int64, error) {
	return procField(status, "VmHWM:")
}

// procField finds the line starting with key and parses its first
// number.
func procField(text, key string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, key)
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: %s %w", key, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("procfs: field %q not found", key)
}
