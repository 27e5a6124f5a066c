package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// defaultSeed is the seed the pinned digests were made with.
const defaultSeed = 1

// goldenFile pins, for Seed, the sha256 of every reference aggregate
// (in spec order) of each workload, and of every suite table. The
// suite is seed-independent, so its digests are checked on every seed.
type goldenFile struct {
	Seed      uint64              `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

func loadGolden(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	return &g, nil
}

// goldenStep checks this run's digests against the pinned ones, or
// with update records them (only from a run of the pinned seed, unless
// the workload is seed-independent).
func goldenStep(env *runEnv, path string, update bool, name string, digests []string, seedIndependent bool) error {
	g, err := loadGolden(path)
	if update && errors.Is(err, fs.ErrNotExist) {
		g, err = &goldenFile{Seed: defaultSeed}, nil
	}
	if err != nil {
		return err
	}
	if !seedIndependent && env.seed != g.Seed {
		if update {
			return fmt.Errorf("golden digests are pinned for seed %d, not %d", g.Seed, env.seed)
		}
		return nil
	}
	if update {
		if g.Workloads == nil {
			g.Workloads = map[string][]string{}
		}
		g.Workloads[name] = digests
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	want, ok := g.Workloads[name]
	if !ok {
		return fmt.Errorf("golden %s has no digests for %s", path, name)
	}
	if len(want) != len(digests) {
		env.attempted++
		env.fail("golden "+name, fmt.Sprintf("%d digests, %d pinned", len(digests), len(want)))
		return nil
	}
	for i := range want {
		env.attempted++
		if digests[i] != want[i] {
			env.fail("golden "+name, fmt.Sprintf("output %d digest %s, pinned %s", i, digests[i], want[i]))
		}
	}
	return nil
}
