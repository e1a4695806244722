package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is what a run needs from its surroundings: the repository root,
// where the built binaries live, and a scratch directory that is
// removed when the run ends.
type env struct {
	root    string // repository root (holds cmd/ and bench/)
	build   string // root/.bench_build: binaries, Go caches, run directories
	scratch string // build/run-<pid>: CSVs, data dirs, child stderr
	outDir  string // where a failed run's child stderr is kept; "" = nowhere
}

// children is every process the driver has started and not yet reaped,
// so an interrupt or a panic leaves no dqserve behind.
var children struct {
	sync.Mutex
	procs map[*os.Process]bool
}

func trackChild(p *os.Process) {
	children.Lock()
	if children.procs == nil {
		children.procs = map[*os.Process]bool{}
	}
	children.procs[p] = true
	children.Unlock()
}

func untrackChild(p *os.Process) {
	children.Lock()
	delete(children.procs, p)
	children.Unlock()
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for p := range children.procs {
		p.Kill()
	}
}

// installSignalHandler kills every child, removes the run's scratch
// directory and exits when the driver is interrupted.
func installSignalHandler() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killChildren()
		if dir, ok := scratchDir.Load().(string); ok {
			os.RemoveAll(dir)
		}
		os.Exit(130)
	}()
}

// scratchDir is the current env's scratch directory, for the signal
// handler.
var scratchDir atomic.Value

func newEnv(root, outDir string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "dqserve")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	e := &env{root: root, build: filepath.Join(root, ".bench_build"), outDir: outDir}
	e.scratch = filepath.Join(e.build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	scratchDir.Store(e.scratch)
	return e, nil
}

// cleanup removes the run's scratch directory. After a failed run it
// first keeps every child's stderr where the user will look for it.
func (e *env) cleanup(failed bool) {
	if failed && e.outDir != "" {
		logs, _ := filepath.Glob(filepath.Join(e.scratch, "*.stderr"))
		for _, path := range logs {
			if data, err := os.ReadFile(path); err == nil {
				os.WriteFile(filepath.Join(e.outDir, filepath.Base(path)), data, 0o644)
			}
		}
	}
	os.RemoveAll(e.scratch)
}

// goEnv keeps what the toolchain writes — build and module caches,
// temporary files, its telemetry counters — inside the checkout: the
// benchmark may read and write nowhere else. (run.sh exports the same.)
func (e *env) goEnv() []string {
	tmp := filepath.Join(e.build, "tmp")
	os.MkdirAll(tmp, 0o755)
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(e.build, "gocache"),
		"GOMODCACHE="+filepath.Join(e.build, "gomodcache"),
		"GOTMPDIR="+tmp,
		"XDG_CONFIG_HOME="+filepath.Join(e.build, "config"),
		"GOTOOLCHAIN=local",
		"GOFLAGS=-modcacherw",
	)
}

// buildPrograms compiles the programs under test from the checkout's
// source. Not timed; a no-op build costs a fraction of a second.
func (e *env) buildPrograms() error {
	cmd := exec.Command("go", "build", "-o", filepath.Join(e.build, "bin")+string(os.PathSeparator),
		"./cmd/dqserve", "./cmd/dqdetect")
	cmd.Dir = e.root
	cmd.Env = e.goEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

func (e *env) bin(name string) string { return filepath.Join(e.build, "bin", name) }

func (e *env) rulesArgs(rules map[string]string) []string {
	var args []string
	for _, flag := range []string{"-cfds", "-cinds", "-ecfds"} {
		if f, ok := rules[flag]; ok {
			args = append(args, flag, filepath.Join(e.root, "bench", "rules", f))
		}
	}
	return args
}

func dataArgs(files map[string]string) []string {
	var args []string
	for rel, path := range files {
		args = append(args, "-data", rel+"="+path)
	}
	return args
}

// fsType names the filesystem a directory is on (from /proc/mounts):
// fsync cost and recovery time are the filesystem's as much as the
// program's.
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if strings.HasPrefix(dir, f[1]) && len(f[1]) >= len(best) {
			best, typ = f[1], f[2]
		}
	}
	return typ
}

// freePort asks the kernel for an unused TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// server is one running dqserve child.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  string // path of the captured stderr
	started time.Time
	exited  chan struct{} // closed once Wait has returned
}

// startServer execs dqserve and returns once /healthz answers 200: the
// CSV load and the seed detection are done. The elapsed time is the
// set-up (or, on a data dir with history, recovery) time.
func (e *env) startServer(args []string, tag string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	errPath := filepath.Join(e.scratch, tag+".stderr")
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, 0, err
	}
	defer errFile.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(e.bin("dqserve"), append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = errFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, stderr: errPath, exited: make(chan struct{})}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	trackChild(cmd.Process)
	go func() {
		cmd.Wait()
		untrackChild(cmd.Process)
		close(s.exited)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := s.started.Add(120 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(s.started), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, e.childFailed(s, tag, errors.New("dqserve exited before it was healthy"))
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, e.childFailed(s, tag, errors.New("dqserve not healthy after 120 s"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// childFailed folds the tail of the child's stderr into the error.
func (e *env) childFailed(s *server, tag string, err error) error {
	data, _ := os.ReadFile(s.stderr)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return fmt.Errorf("%s: %w\n--- stderr ---\n%s", tag, err, data)
}

// kill sends SIGKILL — the crash the durability layer exists for — and
// waits until the process is gone.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// cpu returns the child's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (100 Hz on Linux).
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

func (s *server) rssPeakMB() (float64, error) { return rssPeakMB(s.cmd.Process.Pid) }

// rssPeakMB returns a process's VmHWM.
func rssPeakMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// healthSeq reads the commit sequence /healthz reports.
func (s *server) healthSeq() (uint64, error) {
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	return h.Seq, nil
}
