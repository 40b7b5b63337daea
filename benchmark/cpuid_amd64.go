package main

import "strings"

// cpuid executes the CPUID instruction (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// cpuModel is the processor's brand string. The benchmark must read and
// write only inside the checkout it runs from (README.md, "Running"), so
// /proc/cpuinfo is out of bounds and the string comes from CPUID.
func cpuModel() string {
	if top, _, _, _ := cpuid(0x80000000, 0); top < 0x80000004 {
		return "unknown"
	}
	var brand []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, b, c, d := cpuid(leaf, 0)
		for _, r := range [4]uint32{a, b, c, d} {
			brand = append(brand, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(brand), "\x00"))
}
