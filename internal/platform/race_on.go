//go:build race

package platform

// RaceEnabled reports whether this binary was built with -race. Harness
// runs force the Locked gradient policy under the detector — the default
// HOGWILD accumulation races benignly by design (as in SLIDE), and the
// Locked striped-mutex mode exists exactly so race-instrumented runs have
// defined behaviour — and allocation gates skip, because the detector's
// sync.Pool drops entries at random.
const RaceEnabled = true
