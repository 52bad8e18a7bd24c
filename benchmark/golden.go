package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON holds, for seed 1, every count and simulated cycle total the
// workloads mine: mode ("full" or "quick") → workload → key → value. Any other
// seed is covered by the workloads' cross-checks instead. To regenerate an
// entry after an intended change, delete it, run the workload with -seed 1 and
// paste the counts the error message prints.
//
//go:embed golden.json
var goldenJSON []byte

func checkGolden(cfg config, counts map[string]int64) error {
	if cfg.seed != 1 {
		return nil
	}
	var golden map[string]map[string]map[string]int64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	mode := "full"
	if cfg.quick {
		mode = "quick"
	}
	want, ok := golden[mode][cfg.workload]
	if !ok {
		got, _ := json.Marshal(counts) //nolint:errcheck // a map of integers always marshals
		return fmt.Errorf("golden.json has no %s counts for %s; this run mined %s", mode, cfg.workload, got)
	}
	if err := sameCounts(counts, want); err != nil {
		return fmt.Errorf("golden.json (%s): %w", mode, err)
	}
	return nil
}
