package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"accv/internal/core"
)

// parentKey is the fingerprint testdata/parent-entry.json was written
// under. The entry comes from a binary whose TestResult still counted
// retry attempts, so its result carries a field the current type lacks.
var parentKey = fp("parent-entry")

// plant writes raw bytes as the entry file of key, the way another
// process (or an older binary) would have left them.
func plant(t *testing.T, s *Store, key string, data []byte) {
	t.Helper()
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParentFormatEntryStillHits pins schema-1 compatibility: a field
// the current TestResult no longer has is ignored on decode, so stores
// filled by earlier binaries keep serving without a schema bump.
func TestParentFormatEntryStillHits(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent-entry.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, t.TempDir(), Options{})
	plant(t, s, parentKey, data)

	got, ok := s.Get(parentKey)
	if !ok {
		t.Fatal("parent-format entry missed")
	}
	want := core.TestResult{
		Name: "loop_private", Family: "loop", Description: "private clause on loop",
		Outcome: core.Pass, FuncRuns: 3, FuncFails: 0,
		Cert:     core.NewCertainty(2, 3),
		HasCross: true,
		Duration: 1500000,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parent-format entry decoded to\n%+v\nwant\n%+v", got, want)
	}
	if _, _, _, corrupt := s.Stats(); corrupt != 0 {
		t.Errorf("parent-format entry counted %d corrupt, want 0", corrupt)
	}
}

// FuzzGet feeds arbitrary bytes to the entry decoder as one fingerprint's
// entry file. Get must never panic; a miss is exactly one counted corrupt
// entry; and a hit must round-trip unchanged through Put and Get. The
// seeds under testdata/fuzz/FuzzGet (a parent-format entry, a truncated
// entry, a wrong schema and a wrong fingerprint) replay under plain
// `go test`.
func FuzzGet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := open(t, t.TempDir(), Options{})
		plant(t, s, parentKey, data)

		got, ok := s.Get(parentKey)
		_, _, _, corrupt := s.Stats()
		if !ok {
			if corrupt != 1 {
				t.Fatalf("miss counted %d corrupt entries, want 1", corrupt)
			}
			return
		}
		if corrupt != 0 {
			t.Fatalf("hit counted %d corrupt entries, want 0", corrupt)
		}
		again := fp("round-trip")
		s.Put(again, got)
		back, ok := s.Get(again)
		if !ok {
			t.Fatal("re-stored hit missed")
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("hit did not round-trip:\ngot  %+v\nwant %+v", back, got)
		}
	})
}
