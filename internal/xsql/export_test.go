package xsql

import "qof/internal/db"

// CmpSteps returns the steps a one-comparison WHERE clause navigates.
func (f *Filter) CmpSteps() []db.Step { return f.root.steps }
