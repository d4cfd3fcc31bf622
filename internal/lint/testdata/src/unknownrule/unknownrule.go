// Package unknown pins the unknown-rule check: a directive naming a rule
// nwlint does not have — misspelled or retired — suppresses nothing and
// is reported with a deletion fix whichever rules ran, while a directive
// for a known rule that did not run is left alone.
package unknown

import "time"

// Typo misspells the rule, so the clock read below it survives.
func Typo() int64 {
	//nwlint:ignore determinsm boot stamp for logs, never enters results
	return time.Now().Unix()
}

// Retired names a rule that was replaced.
func Retired(n int64) int64 {
	//nwlint:ignore atomicfield the counter moved to a typed atomic
	return n + 1
}

// Live carries a well-formed directive for a known rule.
func Live() int64 {
	//nwlint:ignore determinism boot stamp for logs, never enters results
	return time.Now().Unix()
}
