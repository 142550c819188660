package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// goldenStdout is the demo's stdout at the default flags. The demo is
// deterministic, so any change to it is a change in what the simulated
// node did: the pool size, the routing, the map cost or the fault counts.
//
// Regenerate (ONLY when a change deliberately alters simulation
// semantics and says so): UPDATE_GOLDEN=1 go test ./cmd/hpmmapctl
const goldenStdout = "testdata/stdout.golden"

// TestStdoutMatchesGolden builds the command and compares its stdout
// with the committed golden, byte for byte.
func TestStdoutMatchesGolden(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found; cannot build hpmmapctl")
	}
	bin := filepath.Join(t.TempDir(), "hpmmapctl")
	if out, err := exec.Command(gobin, "build", "-o", bin, "hpmmap/cmd/hpmmapctl").CombinedOutput(); err != nil {
		t.Fatalf("building hpmmapctl: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("hpmmapctl: %v\n%s", err, stderr.Bytes())
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenStdout, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenStdout)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("hpmmapctl stdout diverged from %s\n--- got ---\n%s\n--- want ---\n%s", goldenStdout, stdout.Bytes(), want)
	}
}
