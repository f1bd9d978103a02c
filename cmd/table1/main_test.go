package main

import (
	"testing"

	"iddqsyn/internal/experiments"
)

// A run that used its whole budget must not be reported as converged.
func TestStopReason(t *testing.T) {
	prm := experiments.Table1DefaultEvolution()
	if got, want := stopReason(prm.MaxGenerations, prm), "stopped at the 250-generation cap"; got != want {
		t.Errorf("at the cap: %q, want %q", got, want)
	}
	if got, want := stopReason(120, prm), "stalled after 120 generations (window 50)"; got != want {
		t.Errorf("before the cap: %q, want %q", got, want)
	}
}
