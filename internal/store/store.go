// Package store is the persistent, content-addressed result store behind
// warm cross-process sweeps and `accval diff` — ROADMAP item 4's spill of
// the sweep memo to disk. Entries are whole core.TestResults keyed by the
// behavioral fingerprints internal/sweep computes (already sha256 content
// hashes), laid out one JSON file per fingerprint under two-hex-character
// shard directories, written atomically (temp + rename in the same shard)
// and stamped with a schema version. Loads are corruption-tolerant: a
// truncated, garbled, or mis-keyed entry is skipped and counted
// (accv_store_corrupt_entries_total), never fatal. The store is bounded by
// an LRU-style entry cap — least-recently-used entries (by file mtime,
// refreshed on every hit) are evicted once the cap is exceeded — and
// writers across processes serialize through a flock'd lock file, so many
// sweep workers or CI jobs can share one directory (docs/STORE.md).
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accv/internal/core"
	"accv/internal/obs"
)

// SchemaVersion stamps every entry file and the store's VERSION file. A
// directory carrying a different schema refuses to open rather than
// guessing at entries it cannot decode.
const SchemaVersion = 1

// DefaultMaxEntries bounds a store that was opened without an explicit
// cap. Sized far above the full workload — three vendors × every
// simulated version × both languages of the 1.0 registry fingerprint to
// well under a tenth of it — so steady-state sweeps never evict.
const DefaultMaxEntries = 65536

// versionFile is the store-level schema stamp; lockFile serializes
// writers across processes (flock).
const (
	versionFile = "VERSION"
	lockFile    = "lock"
)

// Options parameterizes Open. The zero value takes every default.
type Options struct {
	// MaxEntries caps the number of stored results; past it the
	// least-recently-used entries are evicted (0: DefaultMaxEntries;
	// negative: unbounded).
	MaxEntries int
	// Obs receives the store telemetry —
	// accv_store_{hits,misses,evictions,corrupt_entries}_total and the
	// accv_store_entries gauge (docs/OBSERVABILITY.md). Nil disables it.
	Obs *obs.Observer
}

// Store is a persistent content-addressed result store rooted at one
// directory. It is safe for concurrent use within a process, and for
// concurrent writers across processes (Put serializes through the store's
// lock file; Get is lock-free — entry files are immutable once renamed
// into place).
type Store struct {
	dir string
	max int
	obs *obs.Observer

	mu    sync.Mutex
	index map[string]time.Time // fingerprint → last use (mirrors file mtimes)

	hits, misses, evictions, corrupt atomic.Int64
}

// entry is the on-disk record: the schema stamp and the fingerprint ride
// inside the file so a load can reject entries from a different schema or
// a file that was renamed onto the wrong key.
type entry struct {
	Schema      int             `json:"schema"`
	Fingerprint string          `json:"fingerprint"`
	SavedUnix   int64           `json:"saved_unix"`
	Result      core.TestResult `json:"result"`
}

// Open opens (creating if needed) the store rooted at dir and scans its
// shards to build the in-memory recency index. A directory stamped with a
// different schema version is refused; unreadable or misnamed files found
// during the scan are counted corrupt and skipped.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := checkVersion(dir); err != nil {
		return nil, err
	}
	max := opts.MaxEntries
	if max == 0 {
		max = DefaultMaxEntries
	}
	s := &Store{dir: dir, max: max, obs: opts.Obs, index: map[string]time.Time{}}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.obs.SetGauge("accv_store_entries", float64(len(s.index)))
	return s, nil
}

// checkVersion stamps a fresh directory and verifies an existing one.
func checkVersion(dir string) error {
	path := filepath.Join(dir, versionFile)
	want := fmt.Sprintf("accv-result-store schema %d\n", SchemaVersion)
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		// Atomic, so a process opening the store concurrently never reads
		// a created but still empty stamp.
		return writeAtomic(path, []byte(want))
	}
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", path, err)
	}
	if string(b) != want {
		return fmt.Errorf("store: %s holds %q, this binary speaks schema %d; use a fresh directory or migrate",
			path, strings.TrimSpace(string(b)), SchemaVersion)
	}
	return nil
}

// scan walks the shard directories, indexing every well-named entry by
// its file mtime. It validates names, not contents — contents are checked
// lazily on Get, where a corrupt entry costs one counted miss.
func (s *Store) scan() error {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() || !isShardName(shard.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, shard.Name()))
		if err != nil {
			continue // shard vanished under us (concurrent eviction)
		}
		for _, f := range files {
			fp, ok := strings.CutSuffix(f.Name(), ".json")
			if !ok || !isHex(fp) || !strings.HasPrefix(fp, shard.Name()) {
				if !strings.HasPrefix(f.Name(), ".tmp-") {
					s.countCorrupt()
				}
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			s.index[fp] = info.ModTime()
		}
	}
	return nil
}

// isShardName reports whether name is a two-hex-character shard directory.
func isShardName(name string) bool { return len(name) == 2 && isHex(name) }

// isHex reports whether every byte of s is a lowercase hex digit.
func isHex(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// keyed reports whether fp is storable: a hex content hash long enough to
// shard. Non-hex keys are refused (they would not round-trip through the
// filesystem layout) rather than error — the store is a cache, and an
// unstorable key just stays un-cached.
func keyed(fp string) bool { return len(fp) >= 8 && isHex(fp) }

// path returns the entry file for a fingerprint.
func (s *Store) path(fp string) string {
	return filepath.Join(s.dir, fp[:2], fp+".json")
}

// Get returns the stored result for a fingerprint. A missing entry is a
// counted miss; an unreadable, truncated, schema-mismatched, or mis-keyed
// entry is counted corrupt (and also a miss) and skipped. A hit refreshes
// the entry's recency (best-effort mtime touch).
func (s *Store) Get(fp string) (core.TestResult, bool) {
	if !keyed(fp) {
		return core.TestResult{}, false
	}
	b, err := os.ReadFile(s.path(fp))
	if err != nil {
		s.countMiss()
		return core.TestResult{}, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil || e.Schema != SchemaVersion || e.Fingerprint != fp {
		s.countCorrupt()
		s.countMiss()
		return core.TestResult{}, false
	}
	now := time.Now()
	_ = os.Chtimes(s.path(fp), now, now) // best-effort recency refresh
	s.mu.Lock()
	s.index[fp] = now
	s.mu.Unlock()
	s.hits.Add(1)
	s.obs.Add("accv_store_hits_total", 1)
	return e.Result, true
}

// Put stores a result under its fingerprint, atomically (temp + rename in
// the entry's shard), then evicts least-recently-used entries while the
// store exceeds its cap. Writers across processes serialize through the
// store's lock file. Errors are swallowed: the store is a cache, and a
// failed write only costs a future re-execution.
func (s *Store) Put(fp string, res core.TestResult) {
	if !keyed(fp) {
		return
	}
	b, err := json.Marshal(entry{
		Schema: SchemaVersion, Fingerprint: fp,
		SavedUnix: time.Now().Unix(), Result: res,
	})
	if err != nil {
		return
	}
	unlock, err := lockDir(s.dir)
	if err != nil {
		return
	}
	defer unlock()
	if err := writeAtomic(s.path(fp), b); err != nil {
		return
	}
	s.mu.Lock()
	s.index[fp] = time.Now()
	evict := s.overflow()
	n := len(s.index)
	s.mu.Unlock()
	for _, old := range evict {
		_ = os.Remove(s.path(old))
		s.evictions.Add(1)
		s.obs.Add("accv_store_evictions_total", 1)
	}
	s.obs.SetGauge("accv_store_entries", float64(n))
}

// overflow pops the oldest fingerprints from the index until it fits the
// cap, returning them for file removal. Caller holds s.mu.
func (s *Store) overflow() []string {
	if s.max < 0 {
		return nil
	}
	var evict []string
	for len(s.index) > s.max {
		oldest, oldestAt := "", time.Time{}
		for fp, at := range s.index {
			if oldest == "" || at.Before(oldestAt) {
				oldest, oldestAt = fp, at
			}
		}
		delete(s.index, oldest)
		evict = append(evict, oldest)
	}
	return evict
}

// writeAtomic writes data as path via a temp file in the same directory
// plus rename, so readers only ever observe absent or complete entries.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Load implements core.ResultStore (the memo table's persistence hook).
func (s *Store) Load(fp string) (core.TestResult, bool) { return s.Get(fp) }

// Save implements core.ResultStore.
func (s *Store) Save(fp string, res core.TestResult) { s.Put(fp, res) }

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the lifetime hit, miss, eviction, and corrupt-entry
// counts for this handle (counters are per-process, not persisted).
func (s *Store) Stats() (hits, misses, evictions, corrupt int64) {
	return s.hits.Load(), s.misses.Load(), s.evictions.Load(), s.corrupt.Load()
}

func (s *Store) countMiss() {
	s.misses.Add(1)
	s.obs.Add("accv_store_misses_total", 1)
}

func (s *Store) countCorrupt() {
	s.corrupt.Add(1)
	s.obs.Add("accv_store_corrupt_entries_total", 1)
}
