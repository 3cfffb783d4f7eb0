package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// snapshotVersion stamps the on-disk format. Bump on any change to the
// entry or header shape; a loader refuses versions it does not know
// rather than guessing.
const snapshotVersion = 1

// snapshotFile is the on-disk shape of a plan-cache snapshot: a header
// binding the snapshot to the cache configuration that produced it, plus
// the memoized selections in per-shard MRU→LRU order. Keys carry the full
// (arch, objective, threshold, mem-axis, quantized-features) identity, so
// a snapshot can only warm a cache computing byte-identical keys — which
// is exactly what the header refusals enforce.
type snapshotFile struct {
	Version int `json:"version"`
	// Prefix is the cache's key prefix (arch, objective, threshold, and
	// the memory-clock ladder when present). A drifted prefix means the
	// snapshot answers different questions; loading it would serve wrong
	// plans silently.
	Prefix string `json:"prefix"`
	// Quantum is the feature-quantization bucket width the keys were
	// computed under. Same-looking keys under a different quantum alias
	// different workloads.
	Quantum float64 `json:"quantum"`
	// Shards is the shard count (after power-of-two rounding). Entry
	// order is per-shard LRU order; restoring it requires the same
	// key→shard mapping.
	Shards int `json:"shards"`
	// Capacity is informational (the loader clips to its own bound).
	Capacity int `json:"capacity"`
	// Count must equal len(Entries) — a cheap integrity check that
	// catches a file truncated between complete JSON values.
	Count   int             `json:"count"`
	Entries []snapshotEntry `json:"entries"`
}

// snapshotEntry is one memoized selection. Failed and in-flight entries
// are never snapshotted.
type snapshotEntry struct {
	Key     string    `json:"key"`
	Sel     Selection `json:"sel"`
	Clamped Clamps    `json:"clamped"`
}

// Snapshot serializes the cache's memoized selections to w: a versioned,
// config-stamped header and every completed entry in shard order, each
// shard MRU-first. Shards are locked one at a time, so a snapshot taken
// under load is per-shard consistent and never blocks the whole cache;
// entries still computing (or failed) are skipped.
//
// Derive payloads are deliberately not captured: they are arbitrary
// in-memory structures (the fleet planner's feasibility curves) rebuilt
// from profiles the cache no longer holds. A cache configured with Derive
// refuses to load snapshots — see LoadSnapshot — so warm-started caches
// never serve nil payloads where callers expect real ones.
func (c *PlanCache) Snapshot(w io.Writer) error {
	snap := snapshotFile{
		Version:  snapshotVersion,
		Prefix:   c.prefix,
		Quantum:  c.cfg.Quantum,
		Shards:   len(c.shards),
		Capacity: c.cfg.Capacity,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*planEntry)
			if !e.done.Load() || e.err != nil {
				continue
			}
			snap.Entries = append(snap.Entries, snapshotEntry{Key: e.key, Sel: e.sel, Clamped: e.clamped})
		}
		sh.mu.Unlock()
	}
	snap.Count = len(snap.Entries)
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// LoadSnapshot restores memoized selections from a snapshot written by
// Snapshot into the cache, returning how many entries were installed.
// Restored entries serve hits immediately — the sweeper is never invoked
// for them — which is what keeps a restarted replica from stampeding the
// miss path for workloads it already knew.
//
// The snapshot must match the cache's configuration: the key prefix
// (architecture, objective, threshold, memory axis), quantization
// quantum, and shard count are all stamped into the header and checked
// here. Every entry must carry the cache's key prefix and select clocks
// on the sweeper's design grid (see checkEntry). A mismatch, an unknown
// version, a corrupt/truncated file, or any entry failing its check is
// refused with a descriptive error and leaves the cache unchanged (a
// partial header or a bad entry never installs entries). Keys already
// present and entries beyond a shard's LRU bound are skipped, so loading
// a snapshot from a larger-capacity cache degrades to keeping each
// shard's most-recent slice.
func (c *PlanCache) LoadSnapshot(r io.Reader) (int, error) {
	if c.cfg.Derive != nil {
		return 0, errors.New("core: cache has a Derive payload hook; snapshots cannot capture derived payloads — warm the cache by replaying traffic instead")
	}
	var snap snapshotFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return 0, fmt.Errorf("core: corrupt plan-cache snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("core: plan-cache snapshot version %d, this build reads version %d", snap.Version, snapshotVersion)
	}
	if snap.Prefix != c.prefix {
		return 0, fmt.Errorf("core: plan-cache snapshot was taken under key prefix %q, cache computes %q (architecture, objective, threshold, or memory axis changed)", snap.Prefix, c.prefix)
	}
	if snap.Quantum != c.cfg.Quantum {
		return 0, fmt.Errorf("core: plan-cache snapshot was taken with quantum %v, cache uses %v — quantized keys are not comparable across quanta", snap.Quantum, c.cfg.Quantum)
	}
	if snap.Shards != len(c.shards) {
		return 0, fmt.Errorf("core: plan-cache snapshot was taken with %d shards, cache has %d — per-shard LRU order does not survive resharding", snap.Shards, len(c.shards))
	}
	if snap.Count != len(snap.Entries) {
		return 0, fmt.Errorf("core: truncated plan-cache snapshot: header promises %d entries, file holds %d", snap.Count, len(snap.Entries))
	}
	for i, se := range snap.Entries {
		if err := c.checkEntry(se); err != nil {
			return 0, fmt.Errorf("core: plan-cache snapshot entry %d: %w", i, err)
		}
	}
	loaded := 0
	for _, se := range snap.Entries {
		sh := c.shardFor([]byte(se.Key))
		sh.mu.Lock()
		if _, exists := sh.entries[se.Key]; exists || sh.lru.Len() >= c.shardCap {
			sh.mu.Unlock()
			continue
		}
		e := &planEntry{key: se.Key, sel: se.Sel, clamped: se.Clamped}
		e.done.Store(true)
		// Entries arrive MRU-first per shard; pushing to the back keeps
		// the snapshot's recency order intact.
		e.elem = sh.lru.PushBack(e)
		sh.entries[se.Key] = e
		sh.mu.Unlock()
		loaded++
	}
	return loaded, nil
}

// checkEntry refuses a snapshot entry this cache could never have
// computed: a key outside the cache's prefix, or a selection whose clocks
// are not points of the sweeper's design grid — a core clock outside
// Freqs(), a memory clock outside MemFreqs(), or any memory clock on a
// core-only sweep. The header checks cannot catch a tampered or corrupted
// entry, and installing one would serve an unsupported clock as a hit.
func (c *PlanCache) checkEntry(se snapshotEntry) error {
	if !strings.HasPrefix(se.Key, c.prefix) {
		return fmt.Errorf("key %q lacks the cache's key prefix %q", se.Key, c.prefix)
	}
	if !slices.Contains(c.sweeper.Freqs(), se.Sel.FreqMHz) {
		return fmt.Errorf("key %q selects core clock %v MHz, which the sweep does not cover", se.Key, se.Sel.FreqMHz)
	}
	if mems := c.sweeper.MemFreqs(); mems == nil && se.Sel.MemFreqMHz != 0 || mems != nil && !slices.Contains(mems, se.Sel.MemFreqMHz) {
		return fmt.Errorf("key %q selects memory clock %v MHz, which the sweep does not cover (have %v)", se.Key, se.Sel.MemFreqMHz, mems)
	}
	return nil
}

// SaveSnapshotFile writes the cache snapshot to path crash-safely: the
// bytes land in a temporary file in the same directory (same filesystem),
// are fsynced, and replace path with one atomic rename. A crash at any
// point leaves either the previous snapshot or the new one — never a
// torn file — so a daemon's periodic snapshot loop can fire on a timer
// without coordination.
func (c *PlanCache) SaveSnapshotFile(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".plancache-snapshot-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp) //nolint:errcheck // best-effort cleanup on the error path
		}
	}()
	if err = c.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	if err = f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadSnapshotFile restores a snapshot written by SaveSnapshotFile.
// A missing file is not an error — it reports (0, nil), the cold-start
// case a daemon's first boot hits.
func (c *PlanCache) LoadSnapshotFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	n, err := c.LoadSnapshot(f)
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}
