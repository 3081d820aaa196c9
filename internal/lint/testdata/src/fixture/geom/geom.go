// Package geom is a lint fixture mimicking sthist's pure geometry package.
// Its package name places it in the determinism analyzer's pure set. Lines
// carrying a "// want <check>" comment must produce exactly that diagnostic.
package geom

import (
	"math/rand"
	"time"
)

// ClockUser reads ambient entropy inside a pure package.
func ClockUser() (time.Time, float64) {
	now := time.Now()          // want determinism
	return now, rand.Float64() // want determinism
}

// SeededUser draws randomness from an explicit seed: legal in pure code.
func SeededUser(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// IgnoredClockUser shows the escape hatch suppressing a real finding.
func IgnoredClockUser() time.Time {
	//sthlint:ignore determinism fixture demonstrating the escape hatch
	return time.Now()
}

// BadDirectives carries malformed ignore directives, which are diagnostics
// in their own right and are never suppressible.
func BadDirectives() time.Time {
	//sthlint:ignore determinism
	// want directive
	//sthlint:ignore nosuchcheck because reasons
	// want directive
	return time.Now() // want determinism
}
