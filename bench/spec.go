package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec mirrors BENCHMARK.json, the one place where workload names,
// metric names, units, directions and regression bounds are declared. The
// harness never hard-codes a unit or a direction: it looks them up here,
// so a metric it emits but the file does not declare is an error, not a
// silent extra column.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// decls returns the metric declarations of one kind.
func (s *benchSpec) decls(trace bool) []metricDecl {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported number in the shape the result line wants.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet accumulates the metrics of one run and checks them against the
// declarations when the run ends.
type metricSet map[string]float64

// resolve returns the declared metrics with their units, and an error
// naming every metric that is declared but was not measured, measured but
// not declared, or not a finite number.
func (m metricSet) resolve(decls []metricDecl) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	declared := make(map[string]bool, len(decls))
	var problems []string
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := m[d.Name]
		switch {
		case !ok:
			problems = append(problems, d.Name+" declared but not measured")
		case v != v || v > 1e300 || v < -1e300:
			problems = append(problems, fmt.Sprintf("%s is not finite (%v)", d.Name, v))
		default:
			out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	for name := range m {
		if !declared[name] {
			problems = append(problems, name+" measured but not declared in BENCHMARK.json")
		}
	}
	if len(problems) > 0 {
		return out, fmt.Errorf("metric schema: %v", problems)
	}
	return out, nil
}
