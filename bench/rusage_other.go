//go:build !unix

package main

// Without getrusage the two host figures read 0: unknown.
func processCPUNS() int64 { return 0 }
func peakRSSMB() float64  { return 0 }
