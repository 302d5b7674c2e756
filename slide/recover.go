package slide

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/slide-cpu/slide/internal/faultinject"
	"github.com/slide-cpu/slide/internal/network"
)

// ErrCorruptCheckpoint is wrapped by every load failure caused by checkpoint
// damage — a checksum mismatch, truncation, or a structurally impossible
// field. errors.Is(err, ErrCorruptCheckpoint) distinguishes "this file is
// damaged, fall back to an older checkpoint" from configuration or version
// errors that no fallback will fix.
var ErrCorruptCheckpoint = network.ErrCorruptCheckpoint

// CorruptSection reports which checkpoint section a load error blamed
// (config, hidden, middle, output, tables, rng, or preamble) and the byte
// offset of that section's payload. ok is false when err is not a
// corruption report.
func CorruptSection(err error) (section string, offset int64, ok bool) {
	var ce *network.CorruptError
	if !errors.As(err, &ce) {
		return "", 0, false
	}
	return ce.Section, ce.Offset, true
}

// LoadLastGood restores a model from the newest valid checkpoint in the
// retention ring rooted at path (see WithCheckpointRetain): it tries path,
// then path.1, path.2, … up to retain slots, skipping missing files and
// falling past damaged or unreadable ones. It returns the model and the
// path that actually loaded. When no slot holds a valid checkpoint the
// error joins every slot's failure (and wraps ErrCorruptCheckpoint if any
// slot was damaged rather than merely absent).
func LoadLastGood(path string, retain int) (*Model, string, error) {
	var failures []error
	for _, p := range ringPaths(path, retain) {
		f, err := os.Open(p)
		if err != nil {
			if !os.IsNotExist(err) {
				failures = append(failures, fmt.Errorf("slide: %w", err))
			}
			continue
		}
		m, err := Load(f)
		f.Close()
		if err == nil {
			return m, p, nil
		}
		failures = append(failures, fmt.Errorf("%s: %w", p, err))
	}
	if len(failures) == 0 {
		return nil, "", fmt.Errorf("slide: no checkpoint at %s (ring of %d)", path, max(retain, 1))
	}
	return nil, "", fmt.Errorf("slide: no valid checkpoint in ring: %w", errors.Join(failures...))
}

// A session with WithCheckpointRetain(n) keeps the newest checkpoint at the
// WithCheckpoints path and up to n-1 older generations at path.1 …
// path.(n-1), newest fallback first. Every new checkpoint shifts the ring
// down one slot by rename before the fresh temp file is renamed into the
// primary slot, so the ring always holds the n most recent checkpoints that
// were each, at the time of writing, fully synced.

// ringPaths returns the on-disk paths of a checkpoint ring, newest first:
// the primary path, then path.1 … path.(retain-1). retain < 1 is treated
// as 1 (primary only, no fallbacks).
func ringPaths(path string, retain int) []string {
	if retain < 1 {
		retain = 1
	}
	ps := make([]string, retain)
	ps[0] = path
	for i := 1; i < retain; i++ {
		ps[i] = path + "." + strconv.Itoa(i)
	}
	return ps
}

// rotateRing shifts the ring down one slot to make room for a new primary:
// path.(retain-2) → path.(retain-1), …, path → path.1. The oldest slot is
// overwritten; slots that don't exist yet are skipped.
func rotateRing(path string, retain int) error {
	ps := ringPaths(path, retain)
	for i := len(ps) - 2; i >= 0; i-- {
		if _, err := os.Stat(ps[i]); err != nil {
			continue
		}
		if err := os.Rename(ps[i], ps[i+1]); err != nil {
			return fmt.Errorf("rotating checkpoint ring: %w", err)
		}
	}
	return nil
}

// sweepStale removes checkpoint debris around path: orphaned temp files
// (base.tmp-*) left by a crash between CreateTemp and the atomic rename,
// and ring slots past the retention bound (path.K for K >= retain, left
// over from a session configured with a larger ring). It returns the paths
// it removed. Sessions call it once when the checkpoint schedule opens the
// directory; it is safe on a directory with no checkpoints at all.
func sweepStale(path string, retain int) ([]string, error) {
	if retain < 1 {
		retain = 1
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sweeping checkpoint dir: %w", err)
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		stale := false
		switch {
		case len(name) > len(base)+5 && name[:len(base)+5] == base+".tmp-":
			stale = true
		case len(name) > len(base)+1 && name[:len(base)+1] == base+".":
			k, err := strconv.Atoi(name[len(base)+1:])
			stale = err == nil && k >= retain
		}
		if !stale {
			continue
		}
		p := filepath.Join(dir, name)
		if err := os.Remove(p); err != nil {
			return removed, fmt.Errorf("sweeping %s: %w", p, err)
		}
		removed = append(removed, p)
	}
	return removed, nil
}

// atomicCheckpoint writes net's checkpoint to path via a temp file and
// rename, so a crash mid-write never leaves a truncated checkpoint where a
// loadable one is expected. With retain > 1 the existing ring rotates down
// one slot just before the rename — only once the new checkpoint is fully
// written and synced, so a failed save leaves the ring untouched.
//
// The write stream and the pre-rename window are fault-injection points
// (checkpoint.write, checkpoint.rename). An injected fault stands in for a
// crash at that moment, so cleanup is deliberately skipped for it: the torn
// or orphaned temp file stays on disk exactly as a real kill would leave it,
// and the sweep and fallback have real debris to recover from.
func atomicCheckpoint(net *network.Network, path string, retain int) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		if !errors.Is(err, faultinject.ErrInjected) {
			os.Remove(tmp)
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := net.Save(faultinject.Writer(faultinject.PointCheckpointWrite, f)); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	// CreateTemp opens 0600; match the 0644 a plain SaveFile produces so the
	// rename doesn't silently make the checkpoint owner-only.
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := faultinject.Hit(faultinject.PointCheckpointRename); err != nil {
		// Simulated crash between write and rename: the temp file is orphaned.
		return fmt.Errorf("checkpoint: %w", err)
	}
	if retain > 1 {
		if err := rotateRing(path, retain); err != nil {
			os.Remove(tmp)
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
