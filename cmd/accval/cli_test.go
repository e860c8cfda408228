// cli_test pins the subcommand CLI: accval accepts only verbs, and each
// verb behaves per its documented output and exit-status contract.
package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accv"
)

// capture runs dispatch over argv and returns (stdout, stderr, status).
func capture(t *testing.T, argv ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	status := dispatch(argv, &out, &errb)
	return out.String(), errb.String(), status
}

func TestRunCommand(t *testing.T) {
	out, errb, _ := capture(t, "run", "-compiler", "pgi", "-version", "13.2", "-family", "data", "-iterations", "1")
	if errb != "" {
		t.Errorf("`accval run` stderr not empty: %q", errb)
	}
	if !strings.Contains(out, "pgi 13.2") {
		t.Errorf("report does not mention the compiler: %q", out)
	}
}

func TestSweepCommand(t *testing.T) {
	out, _, status := capture(t, "sweep", "-compiler", "caps", "-family", "parallel", "-iterations", "1")
	if status != 0 {
		t.Errorf("`accval sweep` exit status %d, want 0", status)
	}
	if !strings.Contains(out, "Fig. 8 reproduction") {
		t.Errorf("sweep table header missing: %q", out)
	}
}

// TestShardedSweepSharesStore pins the store-sharing contract across
// differently partitioned sweeps: a serial sweep (-j 1) over a store
// directory leaves entries a wide sweep (-j 16) then serves wholly from
// disk (zero executions), and stdout stays identical. The worker width
// is the partition that varies, so it must stay out of the store key.
func TestShardedSweepSharesStore(t *testing.T) {
	dir := t.TempDir()
	flags := []string{"sweep", "-compiler", "pgi", "-family", "data", "-iterations", "1", "-store", dir}
	coldOut, _, coldStatus := capture(t, append(flags, "-j", "1")...)
	if coldStatus != 0 {
		t.Fatalf("cold serial sweep exited %d", coldStatus)
	}
	warmOut, warmErr, warmStatus := capture(t, append(flags, "-j", "16")...)
	if warmStatus != 0 {
		t.Fatalf("warm wide sweep exited %d", warmStatus)
	}
	if warmOut != coldOut {
		t.Errorf("warm wide stdout differs from cold serial stdout:\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}
	// The warm run's store telemetry must report zero executions: every
	// verdict came off the disk the serial sweep populated.
	if want := " 0 executions this sweep\n"; !strings.Contains(warmErr, want) {
		t.Errorf("warm sweep stderr %q does not report zero executions", warmErr)
	}
}

func TestListAndBugsVerbs(t *testing.T) {
	listOut, _, status := capture(t, "list")
	if status != 0 || !strings.Contains(listOut, "parallel:") {
		t.Errorf("list: status %d, out %q", status, listOut)
	}
	bugsOut, _, status := capture(t, "bugs", "-compiler", "pgi")
	if status != 0 || !strings.Contains(bugsOut, "pgi bug database:") {
		t.Errorf("bugs: status %d, out %.80q", status, bugsOut)
	}
}

// TestFlatFlagFormRejected pins that accval accepts only verbs: the
// retired flat-flag form, a bare argv and an unknown verb all print
// usage on stderr, write nothing to stdout, and exit 2.
func TestFlatFlagFormRejected(t *testing.T) {
	for _, argv := range [][]string{
		{"-compiler", "pgi", "-sweep"},
		{"-list"},
		{},
		{"frobnicate"},
	} {
		out, errb, status := capture(t, argv...)
		if status != 2 || out != "" || !strings.Contains(errb, "usage: accval <command>") {
			t.Errorf("accval %q: status %d, stdout %q, stderr %.80q; want 2, empty, usage", argv, status, out, errb)
		}
	}
}

// TestMatrixHonorsExecutionFlags pins that `accval matrix` runs through
// the shared execution flags: a bad -engine is a usage error, the
// worker-pool width leaves the table unchanged, and -metrics reports the
// run.
func TestMatrixHonorsExecutionFlags(t *testing.T) {
	if _, _, status := capture(t, "matrix", "-engine", "bogus"); status != 2 {
		t.Errorf("matrix -engine bogus: status %d, want 2", status)
	}
	serial, _, status := capture(t, "matrix", "-lang", "c", "-family", "data", "-j", "1")
	if status != 0 {
		t.Fatalf("matrix -j 1: status %d", status)
	}
	wide, _, status := capture(t, "matrix", "-lang", "c", "-family", "data", "-j", "4")
	if status != 0 {
		t.Fatalf("matrix -j 4: status %d", status)
	}
	if serial != wide {
		t.Errorf("matrix stdout differs between -j 1 and -j 4:\n--- -j 1 ---\n%s\n--- -j 4 ---\n%s", serial, wide)
	}
	out, _, status := capture(t, "matrix", "-family", "wait", "-metrics", "-")
	if status != 0 || !strings.Contains(out, "accv_tests_total") {
		t.Errorf("matrix -metrics -: status %d, output lacks accv_tests_total:\n%.400s", status, out)
	}
}

func TestHelpListsSubcommands(t *testing.T) {
	out, _, status := capture(t, "help")
	if status != 0 {
		t.Fatalf("help: status %d", status)
	}
	for _, verb := range []string{"run", "sweep", "vet", "diff", "list", "bugs", "matrix"} {
		if !strings.Contains(out, verb) {
			t.Errorf("help output missing %q:\n%s", verb, out)
		}
	}
}

// snapFile writes a snapshot for the given records and returns its path.
func snapFile(t *testing.T, name, version string, recs []accv.SnapshotRecord) string {
	t.Helper()
	s := &accv.Snapshot{Schema: 1, Compiler: "pgi", Version: version, Results: recs}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := accv.WriteSnapshot(f, s); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffCommandExitStatus(t *testing.T) {
	pass := accv.SnapshotRecord{Name: "acc_parallel", Lang: "C", Family: "parallel", Outcome: "pass", FuncRuns: 3}
	fail := pass
	fail.Outcome, fail.FuncFails = "wrong_result", 3

	a := snapFile(t, "a.json", "13.2", []accv.SnapshotRecord{pass})
	b := snapFile(t, "b.json", "14.1", []accv.SnapshotRecord{fail})

	out, _, status := capture(t, "diff", a, b)
	if status != 1 {
		t.Errorf("diff with a regression: status %d, want 1", status)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("diff output missing REGRESSION entry:\n%s", out)
	}

	// Same snapshots → no deltas → exit 0.
	if _, _, status := capture(t, "diff", a, a); status != 0 {
		t.Errorf("diff of identical snapshots: status %d, want 0", status)
	}

	// Known-flaky annotation downgrades the regression.
	out, _, status = capture(t, "diff", "-known-flaky", "acc_parallel.C", a, b)
	if status != 0 {
		t.Errorf("diff with known-flaky: status %d, want 0", status)
	}
	if !strings.Contains(out, "FLAKY") {
		t.Errorf("diff output missing FLAKY entry:\n%s", out)
	}

	// Usage errors exit 2.
	if _, _, status := capture(t, "diff", a); status != 2 {
		t.Errorf("diff with one arg: status %d, want 2", status)
	}
}

func TestVetCommand(t *testing.T) {
	clean := filepath.Join(t.TempDir(), "clean.c")
	src := `int main() {
  int a[8]; int i;
  #pragma acc parallel loop copy(a)
  for (i = 0; i < 8; i = i + 1) { a[i] = i; }
  return 0;
}`
	if err := os.WriteFile(clean, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, errb, status := capture(t, "vet", clean); status != 0 {
		t.Errorf("vet clean file: status %d, stdout %q, stderr %q", status, out, errb)
	}
	if _, _, status := capture(t, "vet"); status != 2 {
		t.Errorf("vet with no args: status %d, want 2", status)
	}
}
