//go:build race

package models

// raceEnabled lets allocation-budget tests skip themselves: allocation
// accounting is not meaningful under the race detector's instrumentation.
const raceEnabled = true
