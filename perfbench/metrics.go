package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile declares every per-layer metric with its unit; the
// benchmark runs from the repository root, where it lives.
const benchmarkFile = "BENCHMARK.json"

// completeLayers checks that m holds only the per-layer metrics
// benchmarkFile declares, with their declared units, and adds a 0 for
// every one the workload did not report: every traced run reports
// every per-layer metric.
func completeLayers(m map[string]metric) error {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return err
	}
	var bench struct {
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	known := make(map[string]string, len(bench.PerLayer))
	for _, lm := range bench.PerLayer {
		known[lm.Name] = lm.Unit
	}
	for name, v := range m {
		if unit, ok := known[name]; !ok || unit != v.Unit {
			return fmt.Errorf("per-layer metric %q (%s) is not declared in %s", name, v.Unit, benchmarkFile)
		}
	}
	for _, lm := range bench.PerLayer {
		if _, ok := m[lm.Name]; !ok {
			m[lm.Name] = metric{0, lm.Unit}
		}
	}
	return nil
}
