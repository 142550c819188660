package examples

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// examples are the facade's demo programs. Each is deterministic at its
// default flags, so its stdout is a record of what the facade booted
// and ran: pool sizes, routing, map costs, fault counts and runtimes.
//
// Regenerate (ONLY when a change deliberately alters simulation
// semantics and says so): UPDATE_GOLDEN=1 go test ./examples
var examples = []string{"quickstart", "faultstudy", "insitu", "consolidation", "scaling"}

// TestStdoutMatchesGolden builds every example and compares its stdout
// at the default flags with testdata/<name>.golden, byte for byte.
func TestStdoutMatchesGolden(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found; cannot build the examples")
	}
	dir := t.TempDir()
	if out, err := exec.Command(gobin, "build", "-o", dir, "hpmmap/examples/...").CombinedOutput(); err != nil {
		t.Fatalf("building the examples: %v\n%s", err, out)
	}
	for _, name := range examples {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			golden := filepath.Join("testdata", name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s stdout diverged from %s\n--- got ---\n%s\n--- want ---\n%s", name, golden, stdout.Bytes(), want)
			}
		})
	}
}
