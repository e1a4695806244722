package repro_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchHarness runs the benchmark module's own tests: BENCHMARK.json
// against the metric catalogue, and TestSmoke, a miniature of all four
// workloads whose oracle compares GET /violations?format=text byte for
// byte against a shadow database (also after a kill -9 and restart).
// bench/ is a Go module of its own, so `go test ./...` at the root does
// not reach it; this test does. Skipped under -short: it builds the
// servers and drives them for about half a minute.
func TestBenchHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives dqserve/dqdetect; skipped in short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	// -count=1: the smoke test builds the servers from the root module's
	// sources, which the test cache does not track.
	out, err := exec.Command(goBin, "test", "-C", "bench", "-count=1", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go test -C bench ./...: %v\n%s", err, out)
	}
	t.Logf("%s", out)
}
