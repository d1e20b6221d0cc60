package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wsdeploy/internal/faultfs"
)

// TestRecordFrameMatchesMarshal pins the WAL byte format: the one-pass
// envelope must equal a frame around json.Marshal(Record{...}) — the
// encoding every existing log was written with — for payloads that
// exercise HTML escaping, non-ASCII text, U+2028 and nested raw JSON.
func TestRecordFrameMatchesMarshal(t *testing.T) {
	type nested struct {
		Note string          `json:"note"`
		Raw  json.RawMessage `json:"raw"`
		Tags []string        `json:"tags"`
	}
	payloads := []any{
		nil,
		"<script>&amp;</script>",
		"naïve — 日本語 ✓ \u2028 \u2029",
		map[string]any{"a<b": "x>y&z", "n": 1.5e-7},
		nested{Note: "tab\there \"quoted\" \\", Raw: json.RawMessage(" { \"k\" : [ 1, \"<&>\", \"\u2028\" ] } "), Tags: []string{"é", "&"}},
		json.RawMessage(`{"spaced" : true , "html":"<b>"}`),
	}
	types := []string{"deployment.created", "fleet.deploy", "odd<type>&", "tÿpe", "quote\"back\\slash", "ctl\x01"}
	for i, p := range payloads {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, typ := range types {
			seq := uint64(1) << uint(i*9)
			want, err := json.Marshal(Record{Seq: seq, Type: typ, Data: data})
			if err != nil {
				t.Fatal(err)
			}
			got := appendRecordFrame([]byte("prefix"), seq, typ, data)
			if wantFrame := encodeFrame([]byte("prefix"), want); !bytes.Equal(got, wantFrame) {
				t.Fatalf("payload %d type %q:\n got %q\nwant %q", i, typ, got[6:], wantFrame[6:])
			}
		}
	}
}

// syncOps counts the fsyncs a store issues through its injector.
func syncOps(in *faultfs.Injector) int { return in.Ops(faultfs.OpSync) }

// TestAppendNoSyncCommitGroup: records written without a sync are
// acknowledged by the next commit — one fsync for the whole group — and
// replay exactly like appended ones.
func TestAppendNoSyncCommitGroup(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.NewInjector(nil)
	s, _ := openT(t, dir, Options{Sync: SyncAlways, FS: in})

	before := syncOps(in)
	for i := 0; i < 3; i++ {
		seq, err := s.AppendNoSync("t", faultPayload{N: i})
		if err != nil {
			t.Fatalf("AppendNoSync %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("AppendNoSync %d seq = %d, want %d", i, seq, i+1)
		}
	}
	if got := syncOps(in) - before; got != 0 {
		t.Fatalf("AppendNoSync issued %d fsyncs, want 0", got)
	}
	if st := s.Status(); st.LastSeq != 0 || st.Appended != 0 || st.WALBytes != 0 {
		t.Fatalf("uncommitted records already acknowledged: %+v", st)
	}
	if seq, err := s.Append("t", faultPayload{N: 3}); err != nil || seq != 4 {
		t.Fatalf("Append after group = %d, %v; want seq 4", seq, err)
	}
	if got := syncOps(in) - before; got != 1 {
		t.Fatalf("group of 4 records took %d fsyncs, want 1", got)
	}
	if st := s.Status(); st.LastSeq != 4 || st.Appended != 4 || st.WALRecords != 4 {
		t.Fatalf("status after commit = %+v, want 4 acknowledged records", st)
	}

	// Sync commits a group on its own, and does nothing when idle.
	if _, err := s.AppendNoSync("t", faultPayload{N: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("idle Sync: %v", err)
	}
	if got := syncOps(in) - before; got != 2 {
		t.Fatalf("after one committed Sync and one idle Sync: %d fsyncs, want 2", got)
	}
	if s.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", s.LastSeq())
	}
	s.Close()

	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if got := replayNs(t, rec); len(got) != 5 || got[4] != 4 {
		t.Fatalf("replayed %v, want [0 1 2 3 4]", got)
	}
}

// TestSyncFaultQuarantinesGroup: a failed commit fsync fail-stops the
// store at the last acknowledged record, exactly like a failed Append;
// Reopen cuts the whole uncommitted group and sequence numbering
// resumes from the acknowledged log.
func TestSyncFaultQuarantinesGroup(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.NewInjector(nil)
	s, _ := openT(t, dir, Options{Sync: SyncAlways, FS: in})
	if _, err := faultAppendN(s, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AppendNoSync("t", faultPayload{N: 90 + i}); err != nil {
			t.Fatal(err)
		}
	}
	in.Arm(faultfs.Fault{Kind: faultfs.SyncErr, At: -1})
	if err := s.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("faulted Sync = %v, want ErrDegraded", err)
	}
	if st := s.Status(); !st.Degraded || st.LastSeq != 2 {
		t.Fatalf("status after failed commit = %+v, want degraded at seq 2", st)
	}
	if _, err := s.AppendNoSync("t", faultPayload{N: 99}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("AppendNoSync while degraded = %v, want ErrDegraded", err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if st := s.Status(); st.QuarantinedBytes == 0 || st.LastSeq != 2 {
		t.Fatalf("status after reopen = %+v", st)
	}
	if seq, err := s.Append("t", faultPayload{N: 2}); err != nil || seq != 3 {
		t.Fatalf("append after recovery = %d, %v; want seq 3", seq, err)
	}
	s.Close()

	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if got := replayNs(t, rec); len(got) != 3 || got[2] != 2 {
		t.Fatalf("replayed %v, want [0 1 2]", got)
	}
}

// TestSnapshotCommitsGroup: a snapshot's pre-compaction fsync commits a
// pending group, so the compacted log keeps it and the counters agree.
func TestSnapshotCommitsGroup(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Sync: SyncAlways})
	if _, err := faultAppendN(s, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendNoSync("t", faultPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("state"), 2); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if st := s.Status(); st.LastSeq != 3 || st.WALRecords != 1 {
		t.Fatalf("status after snapshot = %+v, want seq 3 with one record left in the WAL", st)
	}
	s.Close()
	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if rec.SnapshotSeq != 2 || len(rec.Records) != 1 || rec.Records[0].Seq != 3 {
		t.Fatalf("recovered snapshot %d + %d records, want snapshot 2 + seq 3", rec.SnapshotSeq, len(rec.Records))
	}
}

// TestCreateFreshStore: Create makes a durable empty store and its
// companion file without a recovery scan, refuses a directory that
// already holds a WAL, and removes what it made when an fsync fails.
func TestCreateFreshStore(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "ns")
	in := faultfs.NewInjector(nil)
	s, err := Create(dir, Options{FS: in}, File{Name: "meta.json", Data: []byte("{}\n")})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if got := in.Ops(faultfs.OpSync); got != 3 {
		t.Fatalf("Create issued %d fsyncs, want 3 (companion, dir, root)", got)
	}
	if seq, err := s.Append("t", faultPayload{N: 0}); err != nil || seq != 1 {
		t.Fatalf("first append = %d, %v", seq, err)
	}
	s.Close()
	if b, err := os.ReadFile(filepath.Join(dir, "meta.json")); err != nil || string(b) != "{}\n" {
		t.Fatalf("companion = %q, %v", b, err)
	}
	if _, err := Create(dir, Options{}, File{Name: "meta.json", Data: []byte("clobbered")}); !errors.Is(err, os.ErrExist) {
		t.Fatalf("Create over an existing WAL = %v, want ErrExist", err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "meta.json")); err != nil || string(b) != "{}\n" {
		t.Fatalf("refused Create touched the companion: %q, %v", b, err)
	}
	s2, rec := openT(t, dir, Options{})
	if got := replayNs(t, rec); len(got) != 1 {
		t.Fatalf("replayed %v after a refused Create, want [0]", got)
	}
	s2.Close()

	failed := filepath.Join(root, "sick")
	in.Arm(faultfs.Fault{Kind: faultfs.SyncErr, At: -1})
	if _, err := Create(failed, Options{FS: in}, File{Name: "meta.json", Data: []byte("{}")}); err == nil {
		t.Fatal("Create with a failing fsync succeeded")
	}
	if _, err := os.Stat(failed); !os.IsNotExist(err) {
		t.Fatalf("failed Create left %s behind: %v", failed, err)
	}
}

// TestConcurrentCommitGroups: commit groups and synced appends from
// several goroutines share one WAL. Sequence numbers stay dense, every
// record replays, and the counters agree with the log.
func TestConcurrentCommitGroups(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{Sync: SyncAlways})
	const workers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n := w*each + i
				var err error
				switch {
				case w%2 == 0:
					_, err = s.Append("t", faultPayload{N: n})
				case i%3 == 2:
					if _, err = s.AppendNoSync("t", faultPayload{N: n}); err == nil {
						err = s.Sync()
					}
				default:
					_, err = s.AppendNoSync("t", faultPayload{N: n})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.LastSeq != workers*each || st.Appended != workers*each {
		t.Fatalf("status = %+v, want %d acknowledged records", st, workers*each)
	}
	s.Close()
	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	seen := map[int]bool{}
	for _, n := range replayNs(t, rec) {
		seen[n] = true
	}
	if len(rec.Records) != workers*each || len(seen) != workers*each {
		t.Fatalf("replayed %d records (%d distinct), want %d", len(rec.Records), len(seen), workers*each)
	}
}
