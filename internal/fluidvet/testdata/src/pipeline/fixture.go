// Package pipeline is a fluidvet fixture: the real compile pipeline is
// replay-critical (its listings are shipped, executed, and pinned by
// hash in journal begin records), and its directory name puts this
// fixture in the same scope.
package pipeline

import (
	"sort"
	"time"
)

// Stamp reads the wall clock: flagged — a compile must not depend on
// when it ran.
func Stamp() int64 {
	return time.Now().Unix() // want `determinism: call to time\.Now reads the wall clock`
}

// Registers collects map keys in iteration order: flagged, the slice
// order would vary from run to run.
func Registers(init map[string]float64) []string {
	var regs []string
	for name := range init { // want `determinism: map iteration order is nondeterministic`
		regs = append(regs, name)
	}
	return regs
}

// SortedRegisters is the real pipeline's idiom: collect, then sort.
func SortedRegisters(init map[string]float64) []string {
	var regs []string
	for name := range init {
		regs = append(regs, name)
	}
	sort.Strings(regs)
	return regs
}
