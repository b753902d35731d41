package gpm_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkHarnessVets: benchmark/ is a module of its own that
// imports gpm/internal/..., so `go test ./...` at the root neither builds
// nor vets it, and a signature change in an internal package could break
// the harness unseen. This vets it with the local toolchain and no module
// proxy. Skipped under -short, since it runs the go command.
func TestBenchmarkHarnessVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over the benchmark module")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	cmd := exec.Command(gobin, "vet", "-C", "benchmark", "./...")
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -C benchmark ./...: %v\n%s", err, out)
	}
}
