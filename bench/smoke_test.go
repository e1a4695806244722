package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json's contract schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to the catalogue in spec.go
// and to the limits of the contract it is written to.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the driver's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads, the driver has %d", len(bf.Workloads), len(specs))
	}
	seen := map[string]bool{}
	once := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		once(w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q differs from the driver's %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var contract []metricDef
	for _, d := range endToEnd {
		if d.contract {
			contract = append(contract, d)
		}
	}
	if len(bf.EndToEnd) != len(contract) {
		t.Fatalf("%d end_to_end metrics, the catalogue has %d", len(bf.EndToEnd), len(contract))
	}
	setup := false
	for i, m := range bf.EndToEnd {
		once(m.Name)
		d := contract[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v differs from the catalogue's %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || d.on != nil {
			t.Errorf("end_to_end %s: bad unit, bound or not reported by every workload", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics, the catalogue has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		once(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %d: %+v differs from the catalogue's %+v", i, m, d)
		}
	}
	for _, d := range endToEnd {
		if !d.contract {
			once(d.name)
		}
	}
}

// TestSmoke runs a miniature of all four workloads, untraced and
// traced, against the real binaries: every metric of the catalogue is
// emitted exactly once per applicable workload with a finite value
// (seal enforces that) and the oracle passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts dqserve and dqdetect child processes")
	}
	e, err := newEnv("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup(false)
	defer killChildren()
	if err := e.buildPrograms(); err != nil {
		t.Fatal(err)
	}
	// 2k-tuple datasets and about one second a phase.
	sz := sizes{tupleDiv: 50, warm: 300 * time.Millisecond, measure: 3 * time.Second, setups: 1, batchMin: 1}
	for _, s := range specs {
		tr := newTracer()
		for _, traced := range []bool{false, true} {
			res, err := e.runOne(s, 7, sz, traced, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", s.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			got := map[string]int{}
			for _, m := range res.Metrics {
				got[m.Name]++
				if !nameRE.MatchString(m.Name) {
					t.Errorf("%s: metric name %q is outside the contract's alphabet", s.name, m.Name)
				}
			}
			for _, d := range defs {
				want := 0
				if d.appliesTo(s.name) {
					want = 1
				}
				if got[d.name] != want {
					t.Errorf("%s traced=%v: metric %s emitted %d times, want %d", s.name, traced, d.name, got[d.name], want)
				}
			}
		}
		// The batch workload bypasses the serving side altogether.
		for name := range tr.names() {
			for _, layer := range []string{"serve.", "wal.", "oplog.", "client.request"} {
				if s.name == wBatch && strings.HasPrefix(name, layer) {
					t.Errorf("%s recorded a %s span", s.name, name)
				}
			}
		}
	}
}

// names reports which span names were recorded, for the "no serve/wal
// span on batch_detect" check.
func (t *tracer) names() map[string]int {
	out := map[string]int{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name]++
	}
	return out
}
