package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
)

// expected.json holds what the program's outputs must be. "all" applies to
// every seed: the inputs whose answers do not depend on the seed (Table-1
// counts, per-step counts of the editing sessions, progen counts and
// certificate numbers). "seeds" adds, per seed, the virtual-time point of
// each sim-panel cell in the warm-up round. Table-1 counts are copied from
// EXPERIMENTS.md; the rest was recorded with -record and confirmed to repeat.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile struct {
	All   map[string]float64            `json:"all"`
	Seeds map[string]map[string]float64 `json:"seeds"`
}

// expectations answers "is this output right?" for one seed; with -record
// it notes what it sees instead, to write a new expected file.
type expectations struct {
	all, seed map[string]float64
	recording bool // -record: note every output, compare none

	mu           sync.Mutex
	observed     map[string]float64 // seed-independent outputs seen
	observedSeed map[string]float64 // per-seed outputs seen
	structural   int                // outputs that had no committed expectation to compare with
}

func loadExpectations(seed int64) (*expectations, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &expectations{
		all: f.All, seed: f.Seeds[strconv.FormatInt(seed, 10)],
		observed: map[string]float64{}, observedSeed: map[string]float64{},
	}, nil
}

// check compares one output with its expectation. perSeed marks outputs
// whose expectation lives in the seed's own section; without a section for
// this seed such an output only gets the structural checks its caller makes.
// The expectation maps are read-only, so the timed path takes no lock.
func (e *expectations) check(key string, got float64, perSeed bool) error {
	from := e.all
	if perSeed {
		from = e.seed
	}
	if e.recording {
		e.mu.Lock()
		if perSeed {
			e.observedSeed[key] = got
		} else {
			e.observed[key] = got
		}
		e.mu.Unlock()
		return nil
	}
	want, ok := from[key]
	if !ok {
		if perSeed {
			e.mu.Lock()
			e.structural++
			e.mu.Unlock()
			return nil
		}
		return fmt.Errorf("%s: no expectation in expected.json (got %v)", key, got)
	}
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("%s: got %v, expected %v", key, got, want)
	}
	return nil
}

// verified says how the run's outputs were checked.
func (e *expectations) verified() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.structural > 0 {
		return "structural"
	}
	return "expected"
}

// record merges what this run saw into the expected file at path: the
// seed-independent section is replaced key by key, the seed's own section
// wholesale.
func (e *expectations) record(path string, seed int64) error {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if f.All == nil {
		f.All = map[string]float64{}
	}
	for k, v := range e.observed {
		f.All[k] = v
	}
	if len(e.observedSeed) > 0 {
		if f.Seeds == nil {
			f.Seeds = map[string]map[string]float64{}
		}
		f.Seeds[strconv.FormatInt(seed, 10)] = e.observedSeed
	}
	out, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
