package sweep_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"accv/internal/ast"
	"accv/internal/core"
	"accv/internal/sweep"
	"accv/internal/vendors"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden")

const fingerprintsGolden = "testdata/fingerprints.golden"

// TestFingerprintsGolden pins the result-store keys. Each line of the
// golden file digests one (vendor, version, lang) cell: the sha256 of the
// cell's sorted "<template ID> <fingerprint>" lines over the full 1.0
// registry, salted as accval's default configuration salts them
// (Iterations 3). Fingerprints are the keys of the memo table and of
// every persistent result store, so a change to this file makes every
// existing store cold: only a deliberate key change may regenerate it,
// with
//
//	go test ./internal/sweep -run TestFingerprintsGolden -update
//
// and the change must be named in CHANGES.md.
func TestFingerprintsGolden(t *testing.T) {
	salt := sweep.ConfigSalt(core.Config{Iterations: 3}.WithDefaults())
	var got bytes.Buffer
	for _, vendor := range []string{"caps", "pgi", "cray"} {
		// One fingerprinter per vendor family, as sweep.Run builds it.
		fps := sweep.NewFingerprinter(salt)
		for _, version := range vendors.All()[vendor] {
			for _, lang := range []ast.Lang{ast.LangC, ast.LangFortran} {
				tc, err := vendors.New(vendor, version)
				if err != nil {
					t.Fatal(err)
				}
				fp := fps.For(tc)
				var lines []string
				for _, tpl := range sweep.TemplatesFor("", lang) {
					key, ok := fp(tpl)
					if !ok {
						t.Fatalf("%s %s: no fingerprint for %s", vendor, version, tpl.ID())
					}
					lines = append(lines, tpl.ID()+" "+key+"\n")
				}
				sort.Strings(lines)
				h := sha256.New()
				for _, l := range lines {
					h.Write([]byte(l))
				}
				fmt.Fprintf(&got, "%s %s %s %x\n", vendor, version, lang, h.Sum(nil))
			}
		}
	}

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fingerprints drifted from %s; every existing result store would go cold\n--- got ---\n%s--- want ---\n%s",
			fingerprintsGolden, got.String(), want)
	}
}
