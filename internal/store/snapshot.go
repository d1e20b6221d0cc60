package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"wsdeploy/internal/faultfs"
)

// Snapshot files are named snap-<seq>.bin where seq is the last record
// sequence the state covers; the content is one CRC32C frame around the
// caller's opaque state. The name carries the sequence so recovery can
// order snapshots without trusting file times, and the frame carries
// the checksum so a damaged snapshot is loud, not wrong.

const (
	snapPrefix = "snap-"
	snapSuffix = ".bin"
	walName    = "wal.log"
	tmpSuffix  = ".tmp"
)

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

// parseSnapName extracts the covered sequence from a snapshot filename.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// writeFileAtomic writes data to path via a temp file in the same
// directory: write → fsync → rename → fsync(dir). After it returns the
// file is durably either absent or complete, never partial. On failure
// the temp file is removed and the returned Op tags the stage that
// failed ("" for open/close), so callers can feed the per-class fault
// counters.
func writeFileAtomic(fsys faultfs.FS, path string, data []byte) (faultfs.Op, error) {
	tmp := path + tmpSuffix
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return faultfs.OpWrite, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return faultfs.OpSync, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return "", err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return faultfs.OpRename, err
	}
	return faultfs.OpSync, syncDir(fsys, filepath.Dir(path))
}

// WriteFile durably replaces path with data: temp file, fsync, rename,
// directory fsync. After it returns the file is complete on stable
// storage; a crash before then leaves the old file or none.
func WriteFile(fsys faultfs.FS, path string, data []byte) error {
	_, err := writeFileAtomic(fsys, path, data)
	return err
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a power cut.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadLatestSnapshot finds the highest-sequence snapshot in dir,
// verifies its frame, and returns its state. A missing snapshot returns
// (nil, 0, nil); a damaged one returns ErrCorrupt — snapshots are
// written atomically, so a named snapshot that fails its checksum is
// interior damage, not a crash artifact. Leftover temp files from a
// crashed snapshot attempt are removed.
func loadLatestSnapshot(fsys faultfs.FS, dir string, maxRecord int) (state []byte, seq uint64, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	best := uint64(0)
	found := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			fsys.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if s, ok := parseSnapName(e.Name()); ok && (!found || s > best) {
			best, found = s, true
		}
	}
	if !found {
		return nil, 0, nil
	}
	raw, err := fsys.ReadFile(filepath.Join(dir, snapName(best)))
	if err != nil {
		return nil, 0, err
	}
	payload, end, ferr := frameAt(raw, 0, maxRecord)
	if ferr != nil || end != int64(len(raw)) {
		if ferr == nil {
			ferr = fmt.Errorf("%d trailing bytes", int64(len(raw))-end)
		}
		return nil, 0, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, snapName(best), ferr)
	}
	return payload, best, nil
}

// pruneSnapshots removes every snapshot older than keep. Best-effort:
// stale files cost disk, not correctness.
func pruneSnapshots(fsys faultfs.FS, dir string, keep uint64) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if s, ok := parseSnapName(e.Name()); ok && s < keep {
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// snapshotSeqs lists the covered sequences of every snapshot present,
// ascending — Status reporting.
func snapshotSeqs(fsys faultfs.FS, dir string) []uint64 {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []uint64
	for _, e := range entries {
		if s, ok := parseSnapName(e.Name()); ok {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
