//go:build !race

package anomaly

const raceEnabled = false
