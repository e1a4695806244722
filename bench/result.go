package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metric is one measured value, with what a reader needs to judge it.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`   // allowed worsening; absent = unbounded
	Samples int     `json:"samples,omitempty"` // observations behind the value
}

// reconRow is one line of the reconciliation table: a server-side
// stage's mean x count against the client-observed commit time.
type reconRow struct {
	Stage   string  `json:"stage"`
	Count   int     `json:"count"`
	MeanMS  float64 `json:"mean_ms"`
	TotalMS float64 `json:"total_ms"`
	Share   float64 `json:"share"` // of the client-observed total
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Phases    map[string]float64 `json:"phase_seconds"`
	Metrics   []metric           `json:"metrics"`
	Recon     []reconRow         `json:"reconciliation,omitempty"`
	Notes     []string           `json:"notes,omitempty"`

	values map[string]float64
	counts map[string]int
}

func (r *workloadResult) set(name string, v float64, samples int) {
	if r.values == nil {
		r.values, r.counts = map[string]float64{}, map[string]int{}
	}
	r.values[name] = v
	r.counts[name] = samples
}

// seal turns the collected values into the ordered metric list of the
// catalogue, checking that every applicable metric was produced exactly
// once and is finite.
func (r *workloadResult) seal() error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	r.Metrics = r.Metrics[:0]
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !d.appliesTo(r.Workload) {
			if ok {
				return fmt.Errorf("%s: metric %s does not apply but was produced", r.Workload, d.name)
			}
			continue
		}
		if !ok {
			if !r.Traced {
				return fmt.Errorf("%s: metric %s was not produced", r.Workload, d.name)
			}
			v = 0 // a layer this workload bypasses
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.name, v)
		}
		r.Metrics = append(r.Metrics, metric{Name: d.name, Value: v, Unit: d.unit,
			Better: d.better, Bound: d.bound, Samples: r.counts[d.name]})
	}
	for name := range r.values {
		if !known(defs, name) {
			return fmt.Errorf("%s: metric %s is not in the catalogue", r.Workload, name)
		}
	}
	return nil
}

func known(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func (r *workloadResult) print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n%s seed %d: %s, correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, kind, r.Correct, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		bound := "unbounded"
		if m.Bound > 0 {
			bound = fmt.Sprintf("bound %g%%", m.Bound*100)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-10s %-6s %-12s n=%d\n", m.Name, m.Value, m.Unit, m.Better, bound, m.Samples)
	}
	if len(r.Recon) > 0 {
		fmt.Fprintf(w, "  reconciliation: server stages vs client-observed commit time (lo phase)\n")
		fmt.Fprintf(w, "    %-24s %8s %12s %12s %8s\n", "stage", "count", "mean ms", "total ms", "share")
		for _, row := range r.Recon {
			fmt.Fprintf(w, "    %-24s %8d %12.4f %12.2f %7.1f%%\n", row.Stage, row.Count, row.MeanMS, row.TotalMS, row.Share*100)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// host is the envelope every result carries: numbers from different
// boxes must not be compared by accident.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	FSType     string  `json:"fs_type"` // of the data directories
	Seconds    int     `json:"measured_seconds"`
	WarmS      float64 `json:"warm_seconds"`
}

func hostEnvelope(e *env, sz sizes) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Kernel: "unknown", Commit: "unknown", FSType: fsType(e.scratch),
		Seconds: int(sz.measure.Seconds()), WarmS: sz.warm.Seconds()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// resultFile is what `bench run` writes: one entry per set, each a run
// of every selected workload.
type resultFile struct {
	Host host                `json:"host"`
	Sets [][]*workloadResult `json:"sets"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err // unwrapped: callers test for a missing file
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
