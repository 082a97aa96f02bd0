package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

//go:embed expected.json
var builtinExpected []byte

// expectedPath is where -update-expected writes when -expected names no
// other file: the source of the embedded copy, relative to the checkout
// root that run.sh starts the benchmark in.
const expectedPath = "benchmark/expected.json"

// expected holds, per workload, the exact simulated statistics of one
// pass at seed 1 and full size.
type expected struct {
	stats map[string]counts
}

func loadExpected(o options) (*expected, error) {
	data := builtinExpected
	if o.expected != "" {
		var err error
		if data, err = os.ReadFile(o.expected); errors.Is(err, fs.ErrNotExist) && o.update {
			data = []byte("{}")
		} else if err != nil {
			return nil, err
		}
	}
	e := &expected{}
	if err := json.Unmarshal(data, &e.stats); err != nil {
		return nil, fmt.Errorf("expected stats: %w", err)
	}
	return e, nil
}

// applies reports whether this run's statistics are comparable with the
// recorded ones: only seed 1 is recorded, and the built-in file only
// for the full sizes.
func (e *expected) applies(o options) bool {
	return o.seed == 1 && (!o.smoke || o.expected != "")
}

// update replaces one workload's entry and rewrites the file.
func (e *expected) update(o options, name string, c counts) error {
	if o.seed != 1 || o.trace != 1 {
		return errors.New("-update-expected needs -seed 1 and -trace 1: only that run measures every recorded statistic")
	}
	path := o.expected
	if path == "" {
		path = expectedPath
		// The embedded copy may be older than the file another
		// workload's update has just written.
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &e.stats); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if e.stats == nil {
		e.stats = map[string]counts{}
	}
	e.stats[name] = c
	b, err := json.MarshalIndent(e.stats, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// diffOn names the first statistic of c that want does not repeat. A
// run that measured only part of the recorded set (an untraced run has
// no event census) is compared on that part.
func (c counts) diffOn(want counts) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; !ok || w != c[k] {
			return fmt.Sprintf("%s: measured %d, recorded %d", k, c[k], w)
		}
	}
	return ""
}
