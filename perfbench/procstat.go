package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of the utime/stime fields of /proc/<pid>/stat
// (USER_HZ, 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// selfCPU returns the user plus system CPU this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfPeakRSS returns this process's peak resident set in bytes.
func selfPeakRSS() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // Linux reports KiB
}

// procCPU returns the user plus system CPU a running process has used, read
// from /proc/<pid>/stat at clock-tick resolution.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces, so fields are counted from the
// closing parenthesis.
func parseStatCPU(data []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat line without a command name")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command name", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procPeakRSS returns a running process's peak resident set in bytes
// (VmHWM of /proc/<pid>/status).
func procPeakRSS(pid int) (uint64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(f io.Reader) (uint64, error) {
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb * 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// usage accumulates CPU and peak memory over the processes doing a
// workload's work.
type usage struct {
	cpu  time.Duration
	peak uint64
}

// procUsage reads the CPU and peak resident set of the given processes.
func procUsage(pids []int) (usage, error) {
	var u usage
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return u, err
		}
		p, err := procPeakRSS(pid)
		if err != nil {
			return u, err
		}
		u.cpu += c
		u.peak += p
	}
	return u, nil
}
