// Command bench is the repository's end-to-end and per-layer benchmark.
// It builds cmd/dqserve and cmd/dqdetect from the checkout, generates
// inputs from a seed, starts the real binaries as child processes,
// drives them over HTTP, checks their outputs against an oracle and
// prints every metric by name. See README.md.
//
//	go run -C bench . run -seed 1 [-workload W] [-trace] [-sets K] -out DIR
//	go run -C bench . compare A.json B.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (the BENCHMARK.json contract)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	installSignalHandler()
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "contract":
		err = cmdContract(os.Args[2:])
	default:
		usage()
	}
	killChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bench run -seed N [-workload W] [-trace] [-sets K] [-append] [-seconds S] -out DIR
  bench compare A.json B.json
  bench contract --workload W --seed N --seconds S --trace 0|1`)
	os.Exit(2)
}

// defaultSeconds is BENCHMARK.json's run_seconds: `bench run` measures
// what the contract measures unless told otherwise.
const defaultSeconds = 20

// runOne runs one workload once, untraced or traced. A panic in the
// driver must not leave a dqserve behind.
func (e *env) runOne(s spec, seed int64, sz sizes, traced bool, tr *tracer) (res *workloadResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			killChildren()
			panic(p)
		}
	}()
	switch {
	case s.server() && traced:
		return e.runServerTraced(s, seed, sz, tr)
	case s.server():
		return e.runServerUntraced(s, seed, sz)
	case traced:
		return e.runBatchTraced(seed, sz, tr)
	default:
		return e.runBatchUntraced(seed, sz)
	}
}

func cmdRun(args []string) (err error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "input seed")
	workload := fs.String("workload", "", "run only this workload (default: all four)")
	trace := fs.Bool("trace", false, "also make the traced run: per-layer metrics, reconciliation table, trace.json")
	sets := fs.Int("sets", 1, "interleaved repetitions of the selected workloads")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds per run")
	out := fs.String("out", "", "directory for result.json (and trace.json, and a failing child's stderr)")
	appendSets := fs.Bool("append", false, "add the sets to the result files already in -out instead of replacing them")
	root := fs.String("root", "..", "repository root")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("run: -out DIR is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	e, err := newEnv(*root, *out)
	if err != nil {
		return err
	}
	defer func() { e.cleanup(err != nil) }()
	if err := e.buildPrograms(); err != nil {
		return err
	}
	selected := specs
	if *workload != "" {
		s, err := specByName(*workload)
		if err != nil {
			return err
		}
		selected = []spec{s}
	}
	sz := defaultSizes(*seconds)
	untraced := &resultFile{Host: hostEnvelope(e, sz)}
	traced := &resultFile{Host: untraced.Host}
	if *appendSets {
		for _, rf := range []struct {
			file string
			into *resultFile
		}{{"result.json", untraced}, {"result-trace.json", traced}} {
			if old, err := readResultFile(filepath.Join(*out, rf.file)); err == nil {
				rf.into.Sets = old.Sets
			} else if !os.IsNotExist(err) {
				return err
			}
		}
	}
	var tr *tracer
	if *trace {
		tr = newTracer()
	}
	for set := 0; set < *sets; set++ {
		var uset, tset []*workloadResult
		for _, s := range selected {
			fmt.Fprintf(os.Stderr, "set %d: %s\n", set+1, s.name)
			res, err := e.runOne(s, *seed, sz, false, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			res.print(os.Stdout)
			uset = append(uset, res)
			if *trace {
				res, err := e.runOne(s, *seed, sz, true, tr)
				if err != nil {
					return fmt.Errorf("%s (traced): %w", s.name, err)
				}
				res.print(os.Stdout)
				tset = append(tset, res)
			}
		}
		untraced.Sets = append(untraced.Sets, uset)
		if err := writeJSON(filepath.Join(*out, "result.json"), untraced); err != nil {
			return err
		}
		if *trace {
			traced.Sets = append(traced.Sets, tset)
			if err := writeJSON(filepath.Join(*out, "result-trace.json"), traced); err != nil {
				return err
			}
		}
	}
	if *trace {
		return tr.write(filepath.Join(*out, "trace.json"), untraced.Host)
	}
	return nil
}

// cmdContract is the BENCHMARK.json entry point: one workload, one run,
// one JSON object as the last line of standard output.
func cmdContract(args []string) error {
	fs := flag.NewFlagSet("contract", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	root := fs.String("root", "..", "repository root")
	fs.Parse(args)
	s, err := specByName(*workload)
	if err != nil {
		return err
	}
	e, err := newEnv(*root, "")
	if err != nil {
		return err
	}
	defer e.cleanup(false)
	if err := e.buildPrograms(); err != nil {
		return err
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	res, err := e.runOne(s, *seed, defaultSizes(*seconds), *trace == 1, tr)
	if err != nil {
		return err
	}
	res.print(os.Stderr)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range res.Metrics {
		if *trace == 0 && !contractMetric(m.Name) {
			continue
		}
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func contractMetric(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return d.contract
		}
	}
	return false
}
