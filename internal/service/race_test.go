//go:build race

package service

// raceEnabled: the race detector slows the request path several-fold, so
// wall-clock bounds are ten times looser under it.
const raceEnabled = true
