package main

import (
	"io"
	"testing"
)

func TestRunList(t *testing.T) {
	if got := run([]string{"-list"}, io.Discard); got != 0 {
		t.Errorf("-list exited %d, want 0", got)
	}
}

func TestRunCleanPackage(t *testing.T) {
	if got := run([]string{"../../internal/region"}, io.Discard); got != 0 {
		t.Errorf("clean package exited %d, want 0", got)
	}
}

func TestRunFindsSeededBugs(t *testing.T) {
	// The lockcheck fixture carries deliberate violations, so the driver
	// must exit 1 on it.
	if got := run([]string{"../../internal/lint/testdata/lockcheck"}, io.Discard); got != 1 {
		t.Errorf("seeded-bug fixture exited %d, want 1", got)
	}
}

func TestRunBadFlag(t *testing.T) {
	if got := run([]string{"-definitely-not-a-flag"}, io.Discard); got != 2 {
		t.Errorf("bad flag exited %d, want 2", got)
	}
}

func TestFirstLine(t *testing.T) {
	if got := firstLine("one\ntwo"); got != "one" {
		t.Errorf("firstLine = %q", got)
	}
	if got := firstLine("solo"); got != "solo" {
		t.Errorf("firstLine = %q", got)
	}
}
