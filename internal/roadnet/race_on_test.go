//go:build race

package roadnet

// raceEnabled reports whether the race detector is active: it slows the
// oracle sweeps several-fold and randomly drops sync.Pool entries, which
// breaks allocation pins on pooled scratch.
const raceEnabled = true
