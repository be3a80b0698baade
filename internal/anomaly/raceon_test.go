//go:build race

package anomaly

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so a pass may build its scratch anew and allocation counts are
// not the program's.
const raceEnabled = true
