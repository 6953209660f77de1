package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"tengig/internal/tools"
)

// CheckpointEntry is one journaled sweep point: everything Run needs to
// restore the point without re-simulating it. tools.ThroughputResult is
// all int64/float64 fields, so the JSON round trip is exact and a resumed
// campaign's outputs are byte-identical to an uninterrupted run's.
type CheckpointEntry struct {
	// Sweep names the owning sweep's configuration, "profile/label" (the
	// host profile and Tuning.Label()); together with Payload it keys the
	// entry. Duplicate keys are legal — a campaign that runs the same
	// configuration twice journals it once and restores both.
	Sweep   string                 `json:"sweep"`
	Payload int                    `json:"payload"`
	Result  tools.ThroughputResult `json:"result"`
	// WallMS records the original run's host wall-clock cost, for humans
	// reading the journal; restores do not fold it into outputs.
	WallMS float64 `json:"wall_ms"`
}

// checkpointHeader is the journal's first JSONL line. The fingerprint
// binds the journal to one campaign configuration: resuming under a
// different seed, count, or figure selection would silently splice
// incompatible results, so a mismatch is a hard error.
type checkpointHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

const checkpointVersion = 1

// Checkpoint is a crash-safe journal of completed sweep points: a JSONL
// file holding a fingerprint header plus one line per completed point, in
// completion order. Every Record rewrites the journal to a temp file and
// renames it into place, so the on-disk state is always a complete,
// parseable journal — a kill at any instant loses at most the in-flight
// point. It generalizes the crash-bundle machinery from "one failed point,
// replayable" to "all finished points, restorable".
type Checkpoint struct {
	path        string
	fingerprint string

	mu      sync.Mutex
	order   []ckptKey
	entries map[ckptKey]CheckpointEntry
}

type ckptKey struct {
	sweep   string
	payload int
}

// CheckpointFingerprint derives a campaign fingerprint from any
// JSON-encodable identity value (typically a struct of seed, count, and
// selection flags): sha256 over the canonical encoding, hex-encoded.
func CheckpointFingerprint(identity any) (string, error) {
	data, err := json.Marshal(identity)
	if err != nil {
		return "", fmt.Errorf("core: checkpoint fingerprint: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// OpenCheckpoint opens (resume=true) or creates (resume=false) the journal
// at path. Creating refuses to clobber an existing journal — progress is
// exactly what the file exists to protect — while resuming a journal that
// does not exist yet starts an empty one, so a campaign killed before its
// first completed point resumes cleanly. Resuming validates the stored
// fingerprint against the caller's.
func OpenCheckpoint(path, fingerprint string, resume bool) (*Checkpoint, error) {
	c := &Checkpoint{
		path:        path,
		fingerprint: fingerprint,
		entries:     make(map[ckptKey]CheckpointEntry),
	}
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, fmt.Errorf("core: checkpoint: %w", err)
		}
		return c, nil // fresh journal, first Record materializes it
	}
	defer f.Close()
	if !resume {
		return nil, fmt.Errorf("core: checkpoint %s already exists; resume it or remove it first", path)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
		}
		return c, nil // empty file: treat as fresh
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: bad header: %w", path, err)
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s: version %d, want %d", path, hdr.Version, checkpointVersion)
	}
	if hdr.Fingerprint != fingerprint {
		return nil, fmt.Errorf("core: checkpoint %s was written by a different campaign configuration (fingerprint %.12s…, want %.12s…)",
			path, hdr.Fingerprint, fingerprint)
	}
	for line := 2; sc.Scan(); line++ {
		var e CheckpointEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("core: checkpoint %s: line %d: %w", path, line, err)
		}
		c.add(e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	return c, nil
}

func (c *Checkpoint) add(e CheckpointEntry) {
	k := ckptKey{e.Sweep, e.Payload}
	if _, dup := c.entries[k]; !dup {
		c.order = append(c.order, k)
	}
	c.entries[k] = e
}

// Lookup reports the journaled entry for (sweep, payload), if any.
func (c *Checkpoint) Lookup(sweep string, payload int) (CheckpointEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[ckptKey{sweep, payload}]
	return e, ok
}

// Len reports the number of journaled points.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Record journals a completed point durably: the whole journal is written
// to a temp file in the journal's directory, fsynced, and renamed over
// path. Safe for concurrent use — sweep workers record from the pool.
func (c *Checkpoint) Record(e CheckpointEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(e)
	tmp, err := os.CreateTemp(filepath.Dir(c.path), filepath.Base(c.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	if err := enc.Encode(checkpointHeader{Version: checkpointVersion, Fingerprint: c.fingerprint}); err != nil {
		tmp.Close()
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	for _, k := range c.order {
		if err := enc.Encode(c.entries[k]); err != nil {
			tmp.Close()
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}
