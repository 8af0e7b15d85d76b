package main

// Pins the exit-code contract documented in the package comment: 0 for a
// complete cover, 1 for a failure, 3 for an early stop with a checkpoint.
// The contract is defined once in internal/service and shared with the
// discovery daemon, so these tests drive the real binary — the process
// exit status IS the interface batch scripts consume.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
)

var buildOnce struct {
	sync.Once
	dir string
	bin string
	err error
}

// buildBinary compiles cmd/multihit once per test run, into a directory
// that outlives the building subtest.
func buildBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "multihit-exitcode-*")
		if err != nil {
			buildOnce.err = err
			return
		}
		buildOnce.dir = dir
		bin := filepath.Join(dir, "multihit")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			buildOnce.err = errors.New(string(out))
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatalf("building multihit: %v", buildOnce.err)
	}
	return buildOnce.bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildOnce.dir != "" {
		os.RemoveAll(buildOnce.dir)
	}
	os.Exit(code)
}

// runBinary executes the binary and returns its exit code and output.
func runBinary(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(buildBinary(t), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running multihit %v: %v\n%s", args, err, out)
	}
	return ee.ExitCode(), string(out)
}

func TestExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	ckptDir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want int
		// present, when set, is a glob that must match a file the run wrote.
		present string
	}{
		{
			name: "complete cover exits ExitOK",
			args: []string{"-cancer", "ACC", "-genes", "24", "-hits", "2", "-seed", "7"},
			want: service.ExitOK,
		},
		{
			name: "supervised complete cover exits ExitOK",
			args: []string{"-cancer", "ACC", "-genes", "24", "-hits", "2", "-seed", "7",
				"-checkpoint-dir", filepath.Join(ckptDir, "ok")},
			want: service.ExitOK,
		},
		{
			name: "usage error exits ExitFailure",
			args: []string{"-scheme", "no-such-scheme"},
			want: service.ExitFailure,
		},
		{
			name: "unknown flag exits ExitFailure",
			args: []string{"-bogus"},
			want: service.ExitFailure,
		},
		{
			name: "malformed flag value exits ExitFailure",
			args: []string{"-genes", "notanumber"},
			want: service.ExitFailure,
		},
		{
			name: "removed -splice flag exits ExitFailure",
			args: []string{"-cancer", "LGG", "-genes", "22", "-hits", "5", "-max-iter", "1", "-splice"},
			want: service.ExitFailure,
		},
		{
			name: "removed -checkpoint flag exits ExitFailure",
			args: []string{"-cancer", "LGG", "-genes", "22", "-hits", "5", "-max-iter", "1",
				"-checkpoint", filepath.Join(ckptDir, "five.json")},
			want: service.ExitFailure,
		},
		{
			name: "help exits ExitOK",
			args: []string{"-h"},
			want: service.ExitOK,
		},
		{
			name: "resume without a store exits ExitFailure",
			args: []string{"-cancer", "ACC", "-genes", "24", "-hits", "2",
				"-checkpoint-dir", filepath.Join(ckptDir, "empty"), "-resume"},
			want: service.ExitFailure,
		},
		{
			name: "checkpoint on the 5-hit path exits ExitOK",
			args: []string{"-cancer", "LGG", "-genes", "22", "-hits", "5", "-max-iter", "1",
				"-checkpoint-dir", filepath.Join(ckptDir, "five")},
			want:    service.ExitOK,
			present: filepath.Join(ckptDir, "five", "*.mhc"),
		},
		{
			name: "expired deadline exits ExitEarlyStop",
			args: []string{"-cancer", "ACC", "-genes", "24", "-hits", "2", "-seed", "7",
				"-checkpoint-dir", filepath.Join(ckptDir, "deadline"), "-deadline", "1ns"},
			want: service.ExitEarlyStop,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, out := runBinary(t, tc.args...)
			if got != tc.want {
				t.Fatalf("exit code %d, want %d\noutput:\n%s", got, tc.want, out)
			}
			if tc.present != "" {
				if m, err := filepath.Glob(tc.present); err != nil || len(m) == 0 {
					t.Fatalf("nothing matching %s was written (%v)", tc.present, err)
				}
			}
		})
	}
}

// TestExitCodesMatchServiceContract guards against the CLI and the daemon
// drifting apart: the constants the binary exits with are the service's.
func TestExitCodesMatchServiceContract(t *testing.T) {
	if service.ExitOK != 0 || service.ExitFailure != 1 || service.ExitEarlyStop != 3 {
		t.Fatalf("exit contract changed: OK=%d Failure=%d EarlyStop=%d, want 0/1/3",
			service.ExitOK, service.ExitFailure, service.ExitEarlyStop)
	}
	if got := service.StateForStop(0).ExitCode(); got != service.ExitOK {
		t.Fatalf("StopCompleted maps to exit %d, want %d", got, service.ExitOK)
	}
}

// TestUsageErrorMessage pins that failures identify themselves on stderr.
func TestUsageErrorMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	_, out := runBinary(t, "-scheduler", "bogus")
	if !strings.Contains(out, "multihit:") || !strings.Contains(out, "bogus") {
		t.Fatalf("usage failure output does not identify the error:\n%s", out)
	}
}
