//go:build !amd64

package main

// cpuModel reports no brand string where CPUID is not available.
func cpuModel() string { return "unknown" }
