package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/detect"
)

// batchInput is one variant's generated input and what a correct
// dqdetect must report on it.
type batchInput struct {
	v     batchVariant
	ds    *dataset
	rules ruleSet
	want  int // violations a fresh in-process detection finds
}

// makeBatchInputs generates every variant's CSVs. Variants over the
// same dataset share one generation, as they share the files.
func (e *env) makeBatchInputs(seed int64, sz sizes, dir string) ([]batchInput, error) {
	var out []batchInput
	made := map[string]*dataset{}
	for _, v := range batchVariants {
		key := fmt.Sprintf("%s-%d", v.dataset, v.tuples)
		ds, ok := made[key]
		if !ok {
			var err error
			ds, err = makeDataset(v.dataset, v.tuples/sz.tupleDiv, v.errRate, seed, filepath.Join(dir, key))
			if err != nil {
				return nil, err
			}
			made[key] = ds
		}
		rules, err := loadRules(e, v.rules, schemasOf(ds.db))
		if err != nil {
			return nil, err
		}
		out = append(out, batchInput{v: v, ds: ds, rules: rules})
	}
	return out, nil
}

var totalRE = regexp.MustCompile(`(?m)^total violations: (\d+)$`)

// detectRun is one dqdetect child process.
type detectRun struct {
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
	total int
}

func (e *env) runDetect(in batchInput, tag string) (detectRun, error) {
	args := append([]string{"-max", "1"}, dataArgs(in.ds.files)...)
	args = append(args, e.rulesArgs(in.v.rules)...)
	if in.v.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(in.v.shards))
	}
	cmd := exec.Command(e.bin("dqdetect"), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return detectRun{}, err
	}
	trackChild(cmd.Process)
	// ru_maxrss will not do for the peak: Linux carries the forking
	// driver's own high-water mark into the child's. VmHWM belongs to the
	// address space dqdetect got at exec and only grows, so the last
	// reading before the exit is the peak, less the final few
	// milliseconds.
	exited := make(chan struct{})
	var rssMB float64
	var polled sync.WaitGroup
	polled.Add(1)
	go func() {
		defer polled.Done()
		for {
			if mb, err := rssPeakMB(cmd.Process.Pid); err == nil && mb > rssMB {
				rssMB = mb
			}
			select {
			case <-exited:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	close(exited)
	polled.Wait()
	untrackChild(cmd.Process)
	out := stdout.Bytes()
	// dqdetect exits 1 when it found violations, which these inputs
	// always have; anything else is a failure.
	var ee *exec.ExitError
	if err != nil && !(errors.As(err, &ee) && ee.ExitCode() == 1) {
		return detectRun{}, fmt.Errorf("dqdetect %s: %v\n%s", tag, err, stderr.String())
	}
	m := totalRE.FindSubmatch(out)
	if m == nil {
		return detectRun{}, fmt.Errorf("dqdetect %s: no violation total in its output", tag)
	}
	total, _ := strconv.Atoi(string(m[1]))
	ps := cmd.ProcessState
	return detectRun{wall: wall, cpu: ps.UserTime() + ps.SystemTime(), rssMB: rssMB, total: total}, nil
}

// runBatchUntraced measures batch_detect: dqdetect child processes over
// the variants, round-robin, for the measured time.
func (e *env) runBatchUntraced(seed int64, sz sizes) (*workloadResult, error) {
	res := &workloadResult{Workload: wBatch, Seed: seed, Phases: map[string]float64{}}
	dir := filepath.Join(e.scratch, fmt.Sprintf("%s-%d-e2e", wBatch, seed))
	defer os.RemoveAll(dir)

	// Set-up here is input generation: there is no server to start.
	var setups []float64
	var inputs []batchInput
	for i := 0; i < sz.setups; i++ {
		start := time.Now()
		var err error
		if inputs, err = e.makeBatchInputs(seed, sz, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.set("setup_s", median(setups), len(setups))
	for i := range inputs {
		vs := (&detect.Engine{}).DetectBatch(inputs[i].ds.db, inputs[i].rules.all())
		inputs[i].want = len(vs)
	}

	walls := make([][]float64, len(inputs))
	var all []float64
	var cpu time.Duration
	var rss float64
	tuples := 0
	start := time.Now()
	for round := 0; round < sz.batchMin || time.Since(start) < sz.measure; round++ {
		for i, in := range inputs {
			run, err := e.runDetect(in, fmt.Sprintf("%s-%d-%s-%d", wBatch, seed, in.v.name, round))
			if err != nil {
				return nil, err
			}
			res.Attempted++
			if run.total != in.want {
				return nil, fmt.Errorf("oracle mismatch: dqdetect on %s reports %d violations, a fresh detection finds %d",
					in.v.name, run.total, in.want)
			}
			walls[i] = append(walls[i], ms(run.wall))
			all = append(all, ms(run.wall))
			cpu += run.cpu
			tuples += in.ds.tuples
			if run.rssMB > rss {
				rss = run.rssMB
			}
		}
	}
	res.Phases["measure"] = time.Since(start).Seconds()
	res.Correct = true

	// One round loads roundTuples tuples and takes the sum of the
	// variants' median walls.
	var roundMS float64
	roundTuples := 0
	for i, in := range inputs {
		roundMS += median(walls[i])
		roundTuples += in.ds.tuples
	}
	res.set("latency_p50_ms", percentile(all, 0.5), len(all))
	res.set("latency_mean_ms", mean(all), len(all))
	res.set("latency_p75_ms", percentile(all, 0.75), len(all))
	res.set("throughput_per_s", float64(roundTuples)/(roundMS/1000), len(all))
	res.set("cpu_us_per_op", us(cpu)/float64(tuples), tuples)
	res.set("rss_peak_mb", rss, len(all))
	res.set("failed_frac", 0, res.Attempted)
	return res, res.seal()
}
