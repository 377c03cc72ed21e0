// Package stats is what is left of the statistics layer: the figures
// algebra.EstimateCost needs are read off the index instance itself (a
// set's length, a posting list's length, the token and byte totals), so a
// Stats is the instance. Only bench/ imports this package.
package stats

import "qof/internal/index"

// Stats is the instance whose figures the estimates read.
type Stats = index.Instance

// Collect returns in: the statistics are the instance, so there is nothing
// to build.
func Collect(in *index.Instance) *Stats { return in }
