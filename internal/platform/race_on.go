//go:build race

package platform

// RaceEnabled reports whether this binary was built with -race. Harness
// runs train on one worker under the detector: several HOGWILD workers race
// on shared gradient rows by design (as in SLIDE), so a run that must be
// race-clean or exactly resumable needs a single worker or WithShards, whose
// phase engine gives each worker disjoint rows. Allocation gates skip,
// because the detector's sync.Pool drops entries at random.
const RaceEnabled = true
