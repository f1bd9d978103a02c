//go:build race

package estimate

// raceBuilt reports a -race test binary, where sync.Pool drops a share of
// what it is given on purpose, so pooled paths allocate.
const raceBuilt = true
