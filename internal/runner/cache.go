package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hpmmap/internal/metrics"
)

// Cache is a JSON result cache keyed by experiment cell coordinates. It
// lets hpmmap-bench -cache-dir regenerate tables without re-simulating
// unchanged cells: a cell's key covers the
// experiment, every cell coordinate, the derived seed, the plan's
// Inputs (scale and the other plan-wide options that change a result),
// and a version string that consumers bump whenever the simulator's cost
// model changes, so stale entries can never be confused with fresh ones.
// Run drives the cache (Options.Cache); nothing else reads or writes it.
//
// Entries are one JSON file per key, written atomically (temp file +
// rename), so concurrent workers may put distinct cells safely. A nil
// *Cache is a valid no-op cache: get always misses and put discards.
type Cache struct {
	dir     string
	version string

	// corrupt counts cell files that existed but failed to decode — a
	// truncated write, disk corruption, or manual tampering. Corrupt
	// files are deleted on detection (so the re-simulated result can be
	// re-cached cleanly), counted for runner_cache_corrupt_total, and
	// logged once per process run.
	corrupt atomic.Uint64
	logOnce sync.Once
}

// NewCache opens (creating if needed) a cache rooted at dir. version is
// folded into every key.
func NewCache(dir, version string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty cache dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &Cache{dir: dir, version: version}, nil
}

// entry is one cached cell: its result and, when the run was observed,
// its metric snapshot.
type entry[T any] struct {
	Result  T                `json:"result"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// key builds the cache key for one cell of a plan. inputs is the plan's
// Inputs: everything besides the coordinates and seed that is part of
// the result's identity.
func (c *Cache) key(plan string, cell Cell, seed uint64, inputs string) string {
	v := ""
	if c != nil {
		v = c.version
	}
	raw := fmt.Sprintf("v=%s|plan=%s|exp=%s|bench=%s|prof=%s|mgr=%s|var=%s|cores=%d|run=%d|seed=%016x|in=%s",
		v, plan, cell.Exp, cell.Bench, cell.Profile, cell.Manager, cell.Variant,
		cell.Cores, cell.Run, seed, inputs)
	sum := sha256.Sum256([]byte(raw))
	return hex.EncodeToString(sum[:16])
}

// get loads the cached value for key into out, reporting whether it hit.
// A missing file is a plain miss. A file that exists but fails to decode
// (truncated or corrupt JSON) is also a miss — but it is counted (see
// CorruptCount), logged once, and deleted so the re-simulated cell can
// re-cache a clean entry instead of tripping over the bad file forever.
func (c *Cache) get(key string, out any) bool {
	if c == nil {
		return false
	}
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	if uerr := json.Unmarshal(data, out); uerr != nil {
		c.corrupt.Add(1)
		c.logOnce.Do(func() {
			fmt.Fprintf(os.Stderr,
				"runner: corrupt cache entry %s (%v); deleting and re-simulating (further corrupt entries counted silently)\n",
				path, uerr)
		})
		os.Remove(path)
		return false
	}
	return true
}

// CorruptCount returns how many corrupt cache entries this cache has
// detected (and deleted) so far. Safe on a nil cache and safe for
// concurrent use.
func (c *Cache) CorruptCount() uint64 {
	if c == nil {
		return 0
	}
	return c.corrupt.Load()
}

// put stores v under key. Errors are returned but callers may ignore
// them: a failed put only costs a future re-simulation.
func (c *Cache) put(key string, v any) error {
	if c == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: cache encode: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return fmt.Errorf("runner: cache temp: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache close: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache rename: %w", err)
	}
	return nil
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}
