package linttest_test

import (
	"testing"

	"qof/internal/lint"
	"qof/internal/lint/linttest"
)

// TestRunMatchesFixture drives the harness itself over a real fixture: a
// passing run proves expectations are parsed, claimed, and exhausted.
func TestRunMatchesFixture(t *testing.T) {
	linttest.Run(t, lint.PoolEscape, "../testdata/poolescape")
}
