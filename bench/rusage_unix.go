//go:build unix

package main

import (
	"runtime"
	"syscall"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF fails only for a bad pointer; a zero Rusage
	// reads as "unknown".
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// processCPUNS is the CPU time, user plus system, this process has used.
func processCPUNS() int64 {
	ru := rusage()
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	max := float64(rusage().Maxrss)
	if runtime.GOOS == "darwin" {
		return max / 1e6 // bytes there, kilobytes everywhere else
	}
	return max / 1e3
}
