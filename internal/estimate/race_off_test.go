//go:build !race

package estimate

// raceBuilt reports a -race test binary (see race_on_test.go).
const raceBuilt = false
