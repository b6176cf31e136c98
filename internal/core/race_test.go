//go:build race

package core

// The race detector multiplies the auditor's per-step cost until the
// short suite outruns the default test timeout, and it can find nothing
// in the single-goroutine audited runs; race builds run them unaudited.
func init() { auditSkipped = true }
