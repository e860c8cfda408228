package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"accv/internal/ast"
	"accv/internal/core"
)

// fp derives a well-formed fingerprint (sha256 hex, like the sweep's
// behavioral fingerprints) from any seed string.
func fp(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomResult builds a pseudo-random but JSON-plain TestResult.
func randomResult(rng *rand.Rand, i int) core.TestResult {
	outcomes := []core.Outcome{core.Pass, core.FailCompile, core.FailWrongResult, core.FailTimeout}
	res := core.TestResult{
		Name:     fmt.Sprintf("tpl_%03d", i),
		Lang:     ast.LangC,
		Family:   []string{"parallel", "data", "loop"}[rng.Intn(3)],
		Outcome:  outcomes[rng.Intn(len(outcomes))],
		Detail:   fmt.Sprintf("detail %d", rng.Intn(1000)),
		FuncRuns: 1 + rng.Intn(5),
		HasCross: rng.Intn(2) == 0,
		Duration: time.Duration(rng.Intn(1000)) * time.Millisecond,
	}
	res.FuncFails = rng.Intn(res.FuncRuns + 1)
	if rng.Intn(2) == 0 {
		res.BugIDs = []string{fmt.Sprintf("BUG-%d", rng.Intn(50))}
	}
	return res
}

// TestRoundTripProperty puts a population of random results and checks
// every one reads back identical — through the same handle and through a
// fresh handle over the same directory (the cross-process view).
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	rng := rand.New(rand.NewSource(42))

	want := map[string]core.TestResult{}
	for i := 0; i < 100; i++ {
		res := randomResult(rng, i)
		key := fp(res.Name)
		want[key] = res
		s.Put(key, res)
	}
	check := func(h *Store, label string) {
		for key, res := range want {
			got, ok := h.Get(key)
			if !ok {
				t.Fatalf("%s: %s missing", label, key[:8])
			}
			if !reflect.DeepEqual(got, res) {
				t.Errorf("%s: %s round-trip mismatch:\ngot  %+v\nwant %+v", label, key[:8], got, res)
			}
		}
	}
	check(s, "same handle")
	check(open(t, dir, Options{}), "reopened handle")

	if s.Len() != len(want) {
		t.Errorf("Len() = %d, want %d", s.Len(), len(want))
	}
	hits, misses, _, corrupt := s.Stats()
	if hits != 100 || misses != 0 || corrupt != 0 {
		t.Errorf("Stats() = hits %d misses %d corrupt %d, want 100/0/0", hits, misses, corrupt)
	}
}

// TestCorruptionInjection damages stored entries every way the loader
// guards against; each damaged read is a counted miss + corrupt entry,
// never an error, and intact entries keep serving.
func TestCorruptionInjection(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	good, bad := fp("good"), fp("bad")
	res := core.TestResult{Name: "t", Outcome: core.Pass, FuncRuns: 1}
	s.Put(good, res)
	s.Put(bad, res)

	cases := []struct {
		name    string
		corrupt func(path string) error
	}{
		{"truncated", func(p string) error {
			b, _ := os.ReadFile(p)
			return os.WriteFile(p, b[:len(b)/2], 0o644)
		}},
		{"garbage", func(p string) error {
			return os.WriteFile(p, []byte("not json at all"), 0o644)
		}},
		{"wrong schema", func(p string) error {
			return os.WriteFile(p, []byte(`{"schema":99,"fingerprint":"`+bad+`","result":{}}`), 0o644)
		}},
		{"mis-keyed", func(p string) error {
			return os.WriteFile(p, []byte(`{"schema":1,"fingerprint":"`+good+`","result":{}}`), 0o644)
		}},
	}
	for i, tc := range cases {
		if err := tc.corrupt(s.path(bad)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := s.Get(bad); ok {
			t.Errorf("%s: corrupt entry served as a hit", tc.name)
		}
		_, _, _, corrupt := s.Stats()
		if corrupt != int64(i+1) {
			t.Errorf("%s: corrupt count = %d, want %d", tc.name, corrupt, i+1)
		}
		if got, ok := s.Get(good); !ok || got.Name != "t" {
			t.Errorf("%s: intact sibling entry stopped serving", tc.name)
		}
	}

	// A misnamed file in a shard is counted corrupt at scan time and a
	// fresh handle still opens.
	if err := os.WriteFile(filepath.Join(dir, good[:2], "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	if _, _, _, corrupt := s2.Stats(); corrupt == 0 {
		t.Error("scan did not count the misnamed shard file")
	}
}

// TestSchemaRefusal pins the version-stamp contract: a directory stamped
// by a different schema refuses to open instead of mis-decoding.
func TestSchemaRefusal(t *testing.T) {
	dir := t.TempDir()
	open(t, dir, Options{}) // stamps VERSION
	if err := os.WriteFile(filepath.Join(dir, versionFile), []byte("accv-result-store schema 999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a foreign schema stamp")
	}
}

// TestEvictionCap pins the LRU bound: pushing past the cap evicts the
// least-recently-used entries, deletes their files, and counts it.
func TestEvictionCap(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxEntries: 4})
	res := core.TestResult{Name: "t", Outcome: core.Pass}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fp(fmt.Sprintf("evict-%d", i))
		s.Put(keys[i], res)
		time.Sleep(time.Millisecond) // strictly ordered recency
	}
	if s.Len() != 4 {
		t.Fatalf("Len() = %d after cap-4 overflow, want 4", s.Len())
	}
	if _, _, ev, _ := s.Stats(); ev != 4 {
		t.Errorf("evictions = %d, want 4", ev)
	}
	for _, old := range keys[:4] {
		if _, err := os.Stat(s.path(old)); !os.IsNotExist(err) {
			t.Errorf("evicted entry %s still on disk", old[:8])
		}
	}
	for _, recent := range keys[4:] {
		if _, ok := s.Get(recent); !ok {
			t.Errorf("recent entry %s was evicted", recent[:8])
		}
	}

	// A Get refreshes recency: hit the oldest survivor, push one more,
	// and the hit entry must survive the next eviction.
	s.Get(keys[4])
	time.Sleep(time.Millisecond)
	s.Put(fp("evict-extra"), res)
	if _, err := os.Stat(s.path(keys[4])); err != nil {
		t.Error("LRU evicted the just-hit entry instead of the stale one")
	}
}

// TestUnstorableKeys pins that non-content-hash keys neither store nor
// crash — the store is a cache keyed by hex fingerprints only.
func TestUnstorableKeys(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, key := range []string{"", "short", "UPPERHEXDEADBEEF", "../../etc/passwd", "zz00000000"} {
		s.Put(key, core.TestResult{Name: "x"})
		if _, ok := s.Get(key); ok {
			t.Errorf("unstorable key %q round-tripped", key)
		}
	}
	if s.Len() != 0 {
		t.Errorf("unstorable keys were indexed: Len() = %d", s.Len())
	}
}

// startWriters re-execs this test binary as one TestStoreWriterHelper
// process per id, each Putting n entries into dir under its id's key
// prefix. Every child runs under a context the test's cleanup cancels,
// and the cleanup waits for every child to exit, so a failed test never
// leaves a writer running against its removed TempDir. The returned
// wait blocks until every child has exited and reports all failures.
func startWriters(t *testing.T, dir string, n int, ids ...string) (wait func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run", "TestStoreWriterHelper", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"ACCV_STORE_HELPER_DIR="+dir,
			"ACCV_STORE_HELPER_ID="+id,
			fmt.Sprintf("ACCV_STORE_HELPER_N=%d", n))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if out, err := cmd.CombinedOutput(); err != nil {
				errs[i] = fmt.Errorf("writer %s: %v: %s", id, err, out)
			}
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return func() error {
		wg.Wait()
		return errors.Join(errs...)
	}
}

// TestConcurrentProcessWriters exercises the cross-process writer path
// for real: a child test process and this one interleave Puts into the
// same directory (serialized by the flock'd lock file), and every entry
// from both sides must be present and intact afterwards.
func TestConcurrentProcessWriters(t *testing.T) {
	if os.Getenv("ACCV_STORE_HELPER_DIR") != "" {
		t.Skip("helper invocation")
	}
	dir := t.TempDir()
	wait := startWriters(t, dir, 50, "child")

	s := open(t, dir, Options{})
	res := core.TestResult{Name: "parent", Outcome: core.Pass}
	for i := 0; i < 50; i++ {
		s.Put(fp(fmt.Sprintf("parent-%d", i)), res)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}

	merged := open(t, dir, Options{})
	if merged.Len() != 100 {
		t.Errorf("merged store holds %d entries, want 100", merged.Len())
	}
	for i := 0; i < 50; i++ {
		if got, ok := merged.Get(fp(fmt.Sprintf("parent-%d", i))); !ok || got.Name != "parent" {
			t.Fatalf("parent entry %d missing or damaged", i)
		}
		if got, ok := merged.Get(fp(fmt.Sprintf("child-%d", i))); !ok || got.Name != "child" {
			t.Fatalf("child entry %d missing or damaged", i)
		}
	}
	if _, _, _, corrupt := merged.Stats(); corrupt != 0 {
		t.Errorf("concurrent writers produced %d corrupt entries", corrupt)
	}
}

// TestStoreWriterHelper is the child half of the multi-process tests; it
// only does real work when re-exec'd by startWriters, which sets
// ACCV_STORE_HELPER_DIR, this writer's key prefix ACCV_STORE_HELPER_ID,
// and its entry count ACCV_STORE_HELPER_N.
func TestStoreWriterHelper(t *testing.T) {
	dir := os.Getenv("ACCV_STORE_HELPER_DIR")
	if dir == "" {
		t.Skip("not a helper invocation")
	}
	id := os.Getenv("ACCV_STORE_HELPER_ID")
	n, err := strconv.Atoi(os.Getenv("ACCV_STORE_HELPER_N"))
	if err != nil {
		t.Fatalf("ACCV_STORE_HELPER_N: %v", err)
	}
	s := open(t, dir, Options{})
	res := core.TestResult{Name: id, Outcome: core.Pass}
	for i := 0; i < n; i++ {
		s.Put(fp(fmt.Sprintf("%s-%d", id, i)), res)
	}
}

// TestEightProcessWriterStress scales the cross-process writer drill to
// eight writers: seven re-exec'd writer processes plus this one
// interleave Puts into one directory, standing for accval and accvd
// processes sharing one -store. Every writer's every entry must be
// present and intact, with zero corrupt entries: the flock'd
// atomic-rename protocol must hold under many concurrent writers, not
// just in pairs.
func TestEightProcessWriterStress(t *testing.T) {
	if os.Getenv("ACCV_STORE_HELPER_DIR") != "" {
		t.Skip("helper invocation")
	}
	const children, perWriter = 7, 40
	dir := t.TempDir()
	ids := []string{"parent"}
	for w := 0; w < children; w++ {
		ids = append(ids, fmt.Sprintf("w%d", w))
	}
	wait := startWriters(t, dir, perWriter, ids[1:]...)

	s := open(t, dir, Options{})
	res := core.TestResult{Name: "parent", Outcome: core.Pass}
	for i := 0; i < perWriter; i++ {
		s.Put(fp(fmt.Sprintf("parent-%d", i)), res)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}

	merged := open(t, dir, Options{})
	want := (children + 1) * perWriter
	if merged.Len() != want {
		t.Errorf("merged store holds %d entries, want %d", merged.Len(), want)
	}
	for _, id := range ids {
		for i := 0; i < perWriter; i++ {
			if got, ok := merged.Get(fp(fmt.Sprintf("%s-%d", id, i))); !ok || got.Name != id {
				t.Fatalf("entry %s-%d missing or damaged", id, i)
			}
		}
	}
	if _, _, _, corrupt := merged.Stats(); corrupt != 0 {
		t.Errorf("8-process writers produced %d corrupt entries", corrupt)
	}
}
