package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/machine"
)

// The sweep checkpoint manifest: a checksummed JSON progress file holding
// one entry per completed sweep cell, keyed content-addressably by
// (trace digest, config digest). Every completed cell is written through
// atomically (temp + rename), so the file on disk is always a complete,
// verifiable manifest — a killed sweep leaves either the previous
// manifest or the new one, never a torn hybrid. cmd/sweep's -resume flag
// loads it and skips completed cells; because cells are deterministic,
// the resumed report is byte-identical to an uninterrupted run's.

// manifestVersion guards the file format.
const manifestVersion = 1

// ErrManifestCorrupt marks a manifest whose checksum or structure failed
// verification. errors.Is-reachable through OpenManifest's wrap chain.
var ErrManifestCorrupt = errors.New("harness: manifest corrupt")

// CellOutcome is one completed cell's checkpoint: everything a sweep
// needs to rebuild the cell's report row without replaying. machine.Result
// round-trips JSON exactly (all fields exported, integers and float64s —
// Go encodes float64 with the shortest representation that parses back to
// the same bits), which the manifest round-trip test pins. The field
// order and tags are part of the manifest file format — resume
// byte-identity tests depend on them.
type CellOutcome struct {
	MemFault bool           `json:"mem_fault,omitempty"`
	Attempts int            `json:"attempts"`
	Result   machine.Result `json:"result"`
}

// manifestEntry is one cell in the file, with its key in stable hex.
type manifestEntry struct {
	Trace  string      `json:"trace"`
	Config string      `json:"config"`
	Cell   CellOutcome `json:"cell"`
}

// manifestFile is the on-disk layout. CRC covers the marshaled entries: the
// cells array with its whitespace compacted away.
type manifestFile struct {
	Version int             `json:"version"`
	Cells   []manifestEntry `json:"cells"`
	CRC     string          `json:"crc64"`
}

// Manifest is the in-memory view of a checkpoint file, safe for
// concurrent completion from pool workers.
type Manifest struct {
	path string

	mu    sync.Mutex
	cells map[CellKey]CellOutcome
}

// Manifest is the on-disk CellCache implementation.
var _ CellCache = (*Manifest)(nil)

// NewManifest returns an empty manifest that will persist to path.
func NewManifest(path string) *Manifest {
	return &Manifest{path: path, cells: make(map[CellKey]CellOutcome)}
}

// OpenManifest loads the manifest at path. A missing file yields an empty
// manifest bound to the path (resuming a sweep that never checkpointed is
// just a fresh run); a present-but-unverifiable file yields an error
// wrapping ErrManifestCorrupt — resuming from it would silently produce a
// report that matches nothing. The checksum is verified over the cells as
// they were written, not as this build would marshal them, so a cell that
// lacks a field machine.Result has gained since, or carries one it has lost,
// still verifies.
func OpenManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return NewManifest(path), nil
	}
	if err != nil {
		return nil, fmt.Errorf("harness: reading manifest %s: %w", path, err)
	}
	var f struct {
		Version int             `json:"version"`
		Cells   json.RawMessage `json:"cells"`
		CRC     string          `json:"crc64"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrManifestCorrupt, path, err)
	}
	if f.Version != manifestVersion {
		return nil, fmt.Errorf("%w: %s: version %d, want %d", ErrManifestCorrupt, path, f.Version, manifestVersion)
	}
	var cells bytes.Buffer
	if err := json.Compact(&cells, f.Cells); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrManifestCorrupt, path, err)
	}
	if sum := checksum(cells.Bytes()); sum != f.CRC {
		return nil, fmt.Errorf("%w: %s: checksum %s, want %s", ErrManifestCorrupt, path, f.CRC, sum)
	}
	var entries []manifestEntry
	if err := json.Unmarshal(f.Cells, &entries); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrManifestCorrupt, path, err)
	}
	m := NewManifest(path)
	for _, e := range entries {
		var k CellKey
		k.Trace, err = strconv.ParseUint(e.Trace, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: bad trace key %q", ErrManifestCorrupt, path, e.Trace)
		}
		k.Config, err = strconv.ParseUint(e.Config, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: bad config key %q", ErrManifestCorrupt, path, e.Config)
		}
		m.cells[k] = e.Cell
	}
	return m, nil
}

// Lookup returns the checkpoint for key, if one exists.
func (m *Manifest) Lookup(key CellKey) (CellOutcome, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[key]
	return c, ok
}

// Complete records a finished cell and persists the whole manifest
// atomically. Serialized under the mutex: concurrent completions from
// pool workers each leave a complete file behind.
func (m *Manifest) Complete(key CellKey, cell CellOutcome) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cells[key] = cell
	return m.writeLocked()
}

// Flush persists the current state (a no-op beyond what complete already
// wrote, but gives shutdown paths an explicit sync point).
func (m *Manifest) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeLocked()
}

// checksum is the integrity seal of a manifest's compact cells array.
func checksum(cells []byte) string {
	return fmt.Sprintf("%016x", crc64.Checksum(cells, cellCRCTable))
}

// writeLocked marshals the manifest (cells sorted by key for a stable
// file) and renames it into place. Callers hold m.mu.
func (m *Manifest) writeLocked() error {
	entries := make([]manifestEntry, 0, len(m.cells))
	for k, c := range m.cells {
		entries = append(entries, manifestEntry{
			Trace:  fmt.Sprintf("%016x", k.Trace),
			Config: fmt.Sprintf("%016x", k.Config),
			Cell:   c,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Trace != entries[j].Trace {
			return entries[i].Trace < entries[j].Trace
		}
		return entries[i].Config < entries[j].Config
	})
	cells, err := json.Marshal(entries)
	if err != nil {
		return fmt.Errorf("harness: marshaling manifest: %w", err)
	}
	raw, err := json.MarshalIndent(manifestFile{Version: manifestVersion, Cells: entries, CRC: checksum(cells)}, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: marshaling manifest: %w", err)
	}
	raw = append(raw, '\n')
	// Atomic replace: write a sibling temp file, fsync-free (the manifest
	// is a cache — a lost update means re-running a cell, never a torn
	// read), then rename over the destination.
	tmp, err := os.CreateTemp(filepath.Dir(m.path), ".manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("harness: writing manifest: %w", err)
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: writing manifest: %w", werr)
	}
	if err := os.Rename(tmp.Name(), m.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("harness: writing manifest: %w", err)
	}
	return nil
}
