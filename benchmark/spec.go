package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric and workload names,
// units and regression bounds are declared. The harness emits exactly
// what it declares and fails if it cannot.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit picks the declared metrics out of what a pass computed, stamping
// each with its declared unit. A declared metric the pass did not
// compute is an error: the contract has no optional metrics.
func emit(declared []metricSpec, computed map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := computed[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}
