//go:build race

package analysis_test

func init() { raceEnabled = true }
