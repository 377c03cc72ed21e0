// Package stats is an alias that only bench/ imports, until ROADMAP.md's
// item "thaw the benchmark" (item 1) moves it off: a plan reads no file's
// figures, so there are no statistics to collect.
package stats

import "qof/internal/index"

// Stats is the instance.
type Stats = index.Instance

// Collect returns in: there is nothing to build.
func Collect(in *index.Instance) *Stats { return in }
