// Package sptest (testdata) exercises seed-provenance: every rand source
// seed must dataflow from the derivation chain or a seed-named
// field/parameter. Bad leaves — bare literals, wall clocks, addresses,
// non-seed variables — fire; honest derivations, including a cross-package
// wrapper recognized through the facts store, stay silent.
package sptest

import (
	"math/rand"
	"time"
	"unsafe"

	"spcd/internal/spdep"
)

type Config struct{ Seed int64 }

// DeriveSeed mirrors the real derivation helper; matched by name.
func DeriveSeed(base int64, k string) int64 { return base ^ int64(len(k)) }

func badLiteral() {
	_ = rand.NewSource(42) // want "rand source seed is a bare literal, detached from the run seed"
}

func badClock() {
	_ = rand.NewSource(time.Now().UnixNano()) // want "rand source seed is derived from the wall clock \(time\."
}

func badAddress() {
	var v int
	_ = rand.NewSource(int64(uintptr(unsafe.Pointer(&v)))) // want "rand source seed is address-derived \(unsafe.Pointer\)"
}

func badOpaque(n int64) {
	_ = rand.NewSource(n) // want "rand source seed does not dataflow from DeriveSeed/siteSeed or a seed-named field/parameter"
}

func goodParam(seed int64) {
	_ = rand.NewSource(seed)
}

func goodField(c Config) {
	_ = rand.NewSource(c.Seed*131 + 17)
}

func goodDerive(c Config) {
	_ = rand.NewSource(DeriveSeed(c.Seed, "topology"))
}

// goodLocalHop routes the seed through a local variable; the one level of
// local dataflow the rule follows.
func goodLocalHop(c Config) {
	s := c.Seed ^ 0x9e3779b9
	_ = rand.NewSource(s)
}

// goodFactWrapper derives through spdep.Mix, a cross-package helper with no
// seed in its own name: phase 1 publishes the seed-derives fact for it, and
// phase 2 consumes the fact here.
func goodFactWrapper(c Config) {
	_ = rand.NewSource(spdep.Mix(c.Seed))
}

// suppressed demonstrates a reasoned opt-out for a deliberately
// seed-independent stream.
func suppressed() {
	//lint:ignore seed-provenance testdata: fixed topology stream, independent of the run seed by design.
	_ = rand.NewSource(7919)
}
