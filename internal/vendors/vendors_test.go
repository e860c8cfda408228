package vendors

import (
	"testing"

	"accv/internal/ast"
)

// tableI is the paper's Table I: bugs identified per compiler version and
// language. The bug database must reproduce these counts exactly.
var tableI = map[string]map[string][2]int{ // vendor → version → {C, Fortran}
	"caps": {
		"3.0.7": {36, 32}, "3.0.8": {24, 70}, "3.1.0": {20, 15},
		"3.2.3": {1, 1}, "3.2.4": {1, 1}, "3.3.0": {1, 0},
		"3.3.3": {0, 0}, "3.3.4": {0, 0},
	},
	"pgi": {
		"12.6": {8, 14}, "12.8": {8, 14}, "12.9": {7, 14}, "12.10": {6, 14},
		"13.2": {6, 14}, "13.4": {5, 13}, "13.6": {5, 13}, "13.8": {5, 13},
	},
	"cray": {
		"8.1.2": {16, 6}, "8.1.3": {16, 6}, "8.1.4": {16, 6}, "8.1.5": {16, 6},
		"8.1.6": {16, 6}, "8.1.7": {16, 5}, "8.1.8": {16, 5}, "8.2.0": {16, 5},
	},
}

func TestTableIBugCounts(t *testing.T) {
	for vendor, versions := range tableI {
		for version, want := range versions {
			tc, err := New(vendor, version)
			if err != nil {
				t.Fatalf("New(%s, %s): %v", vendor, version, err)
			}
			v := tc.(*Vendor)
			gotC := len(v.ActiveBugs(ast.LangC))
			gotF := len(v.ActiveBugs(ast.LangFortran))
			if gotC != want[0] || gotF != want[1] {
				t.Errorf("%s %s: bugs C=%d F=%d, Table I says C=%d F=%d",
					vendor, version, gotC, gotF, want[0], want[1])
			}
		}
	}
}

func TestBugIDsUnique(t *testing.T) {
	for _, vendor := range []string{"caps", "pgi", "cray"} {
		tc, _ := New(vendor, "1")
		seen := map[string]bool{}
		for _, b := range tc.(*Vendor).Bugs() {
			if seen[b.ID] {
				t.Errorf("%s: duplicate bug ID %q", vendor, b.ID)
			}
			seen[b.ID] = true
			if b.Title == "" {
				t.Errorf("%s: bug %q has no title", vendor, b.ID)
			}
		}
	}
}

func TestCompareVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"3.0.7", "3.0.8", -1},
		{"3.0.8", "3.0.8", 0},
		{"3.1.0", "3.0.8", 1},
		{"12.10", "12.9", 1}, // numeric, not lexicographic
		{"13.2", "12.10", 1},
		{"8.2.0", "8.1.8", 1},
		{"3.3", "3.3.0", 0},
		{"3.3", "3.3.1", -1}, // a missing component counts as 0
		{"10.0", "9.9.9", 1},
		{"", "0", 0},
	}
	for _, c := range cases {
		if got := CompareVersions(c.a, c.b); got != c.want {
			t.Errorf("CompareVersions(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Every compile and fingerprint runs this once per bug window bound.
	if n := testing.AllocsPerRun(100, func() { CompareVersions("8.1.6", "8.2.0") }); n != 0 {
		t.Errorf("CompareVersions allocates %v times per call, want 0", n)
	}
}

func TestBugActivityWindows(t *testing.T) {
	b := Bug{Introduced: "3.0.8", FixedIn: "3.1.0"}
	for v, want := range map[string]bool{
		"3.0.7": false, "3.0.8": true, "3.0.9": true, "3.1.0": false, "3.2.3": false,
	} {
		if got := b.ActiveIn(v); got != want {
			t.Errorf("ActiveIn(%s) = %v, want %v", v, got, want)
		}
	}
	never := Bug{}
	if !never.ActiveIn("1.0") || !never.ActiveIn("99.0") {
		t.Error("a bug with no bounds must be active everywhere")
	}
}
