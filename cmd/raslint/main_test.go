package main

// End-to-end driver test: run() against throwaway modules, asserting the
// exit-code contract (0 clean / 1 findings / 2 usage / 3 internal) and the
// shape of -json output. The determinism rule's
// module-wide global-math/rand check is the finding generator: it fires
// regardless of import path, so the synthetic module needs no solve-stack
// layout.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"ras/internal/lint"
)

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module demo\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runCLI invokes run() with captured stdout/stderr.
func runCLI(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	code = run(args, outF, errF)
	readBack := func(f *os.File) string {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	return code, readBack(outF), readBack(errF)
}

func TestExitCodeClean(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"clean.go": "package demo\n\nfunc OK() int { return 1 }\n",
	})
	code, stdout, stderr := runCLI(t, []string{"-C", dir, "./..."})
	if code != 0 {
		t.Fatalf("clean module: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean module: unexpected output %q", stdout)
	}
}

func TestExitCodeFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"dirty.go": "package demo\n\nimport \"math/rand\"\n\nfunc Draw() int { return rand.Int() }\n",
	})
	code, stdout, _ := runCLI(t, []string{"-C", dir, "./..."})
	if code != 1 {
		t.Fatalf("module with findings: exit %d, want 1 (stdout %q)", code, stdout)
	}
	if !regexp.MustCompile(`determinism`).MatchString(stdout) {
		t.Fatalf("expected a determinism finding, got %q", stdout)
	}
}

func TestExitCodeUsage(t *testing.T) {
	code, _, _ := runCLI(t, []string{"-no-such-flag"})
	if code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestExitCodeInternal(t *testing.T) {
	t.Run("missing module", func(t *testing.T) {
		code, _, stderr := runCLI(t, []string{"-C", filepath.Join(t.TempDir(), "nowhere"), "./..."})
		if code != 3 {
			t.Fatalf("missing go.mod: exit %d, want 3 (stderr %q)", code, stderr)
		}
	})
	t.Run("type error", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"broken.go": "package demo\n\nfunc Broken() int { return undefinedName }\n",
		})
		code, _, stderr := runCLI(t, []string{"-C", dir, "./..."})
		if code != 3 {
			t.Fatalf("type-broken module: exit %d, want 3 (stderr %q)", code, stderr)
		}
	})
}

func TestJSONFindings(t *testing.T) {
	const src = "package demo\n\nimport \"math/rand\"\n\nfunc Draw() int { return rand.Int() }\n"
	dir := writeModule(t, map[string]string{"dirty.go": src})
	code, stdout, stderr := runCLI(t, []string{"-C", dir, "-json", "./..."})
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if stderr != "" {
		t.Fatalf("-json run wrote to stderr: %q", stderr)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout)
	}
	if len(diags) == 0 || diags[0].Rule != "determinism" || diags[0].Line != 5 {
		t.Fatalf("expected a determinism finding on line 5, got %+v", diags)
	}

	// A rerun over the same tree must reproduce the output exactly.
	code2, stdout2, _ := runCLI(t, []string{"-C", dir, "-json", "./..."})
	if code2 != 1 || stdout2 != stdout {
		t.Fatalf("rerun over the same tree changed output:\n%s\nvs\n%s", stdout, stdout2)
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"clean.go": "package demo\n\nfunc OK() int { return 1 }\n",
	})
	code, stdout, _ := runCLI(t, []string{"-C", dir, "-json", "./..."})
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("clean -json output must be a JSON array: %v\n%s", err, stdout)
	}
	if diags == nil || len(diags) != 0 {
		t.Fatalf("clean run must emit [], got %q", stdout)
	}
}

// TestStaleDirectiveIsAFinding: every run reports an allow directive that
// suppresses nothing, with no flag to ask for it.
func TestStaleDirectiveIsAFinding(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"stale.go": "package demo\n\n//raslint:allow determinism nothing here reads the clock\nfunc OK() int { return 1 }\n",
	})
	code, stdout, _ := runCLI(t, []string{"-C", dir, "./..."})
	if code != 1 || !regexp.MustCompile(`directive: stale //raslint:allow determinism`).MatchString(stdout) {
		t.Fatalf("stale directive: exit %d, stdout %q; want exit 1 and a stale-directive finding", code, stdout)
	}
}
