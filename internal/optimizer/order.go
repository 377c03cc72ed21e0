package optimizer

import (
	"qof/internal/algebra"
	"qof/internal/index"
)

// OrderOperands returns e.
//
// Deprecated: a plan's operand order is the optimizer's (Definition 3.4) and
// reads no file's figures. It stays only because the benchmark
// (bench/ladder.go) still calls it, until ROADMAP.md's item "thaw the
// benchmark" (item 1) moves it off.
func OrderOperands(e algebra.Expr, _ *index.Instance) algebra.Expr { return e }
