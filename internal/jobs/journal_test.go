package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuvar/internal/engine"
)

// The journal's value type in these tests is a plain string; the codec
// is the identity on its bytes.
func strEnc(v string) ([]byte, error) { return []byte(v), nil }
func strDec(b []byte) (string, error) { return string(b), nil }
func journalPath(t *testing.T) string { return filepath.Join(t.TempDir(), "jobs.journal") }
func openJ(t *testing.T, p string) *Journal {
	t.Helper()
	j, err := OpenJournal(p, SyncTerminal)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// newJournaled returns a manager journaling to path.
func newJournaled(t *testing.T, path string, opts Options) *Manager[string] {
	t.Helper()
	m := New[string](opts)
	if err := m.AttachJournal(openJ(t, path), strEnc, strDec); err != nil {
		t.Fatal(err)
	}
	return m
}

// submitWait submits fn and waits for the job to go terminal and for
// both of its journal records (submit and terminal) to be written: the
// terminal record is appended after the state becomes visible, so a
// test that edits the file must not race it.
func submitWait(t *testing.T, m *Manager[string], fn func(ctx context.Context) (string, error)) Snapshot {
	t.Helper()
	journaled := func() uint64 {
		js := m.Stats().Journal
		return js.Appended + js.WriteErrors
	}
	before := journaled()
	id, err := m.Submit("test", engine.Batch, fn)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if snap, ok := m.Get(id); ok && snap.State.Terminal() && journaled() >= before+2 {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never went terminal with both journal records written", id)
	return Snapshot{}
}

func TestParseSyncPolicy(t *testing.T) {
	for spec, want := range map[string]SyncPolicy{
		"": SyncTerminal, "terminal": SyncTerminal, "always": SyncAlways, "never": SyncNever,
	} {
		got, err := ParseSyncPolicy(spec)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = (%v, %v), want %v", spec, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted an unknown policy")
	}
}

// TestJournalReplayTerminalStates: done (with result bytes), failed,
// and canceled jobs all survive a restart with their exact outcomes.
func TestJournalReplayTerminalStates(t *testing.T) {
	path := journalPath(t)
	m := newJournaled(t, path, Options{})

	doneSnap := submitWait(t, m, func(context.Context) (string, error) { return "the result bytes", nil })
	failSnap := submitWait(t, m, func(context.Context) (string, error) { return "", errors.New("sim exploded") })
	cancelSnap := submitWait(t, m, func(ctx context.Context) (string, error) { return "", context.Canceled })

	// "Reboot": a fresh manager over the same journal file.
	m2 := newJournaled(t, path, Options{})
	if v, snap, ok := m2.Result(doneSnap.ID); !ok || snap.State != StateDone || v != "the result bytes" {
		t.Fatalf("done job after replay = (%q, %+v, %v), want the original result", v, snap, ok)
	}
	if snap, ok := m2.Get(failSnap.ID); !ok || snap.State != StateFailed || !strings.Contains(snap.Error, "sim exploded") {
		t.Fatalf("failed job after replay = (%+v, %v)", snap, ok)
	}
	if snap, ok := m2.Get(cancelSnap.ID); !ok || snap.State != StateCanceled {
		t.Fatalf("canceled job after replay = (%+v, %v)", snap, ok)
	}
	st := m2.Stats()
	if st.Journal == nil || st.Journal.RecoveredTerminal != 3 {
		t.Fatalf("journal stats after replay = %+v, want 3 recovered terminal jobs", st.Journal)
	}
}

// TestJournalInterruptedJobFailsExplicitly: a submit record with no
// terminal record — the signature of a crash mid-job — replays as a
// failed job naming the restart, not as a vanished ID.
func TestJournalInterruptedJobFailsExplicitly(t *testing.T) {
	path := journalPath(t)
	j := openJ(t, path)
	rec, _ := json.Marshal(journalRecord{Op: "submit", ID: "jdeadbeef", Class: "batch", T: time.Now().UTC()})
	if err := os.WriteFile(path, append(rec, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	m := New[string](Options{})
	if err := m.AttachJournal(j, strEnc, strDec); err != nil {
		t.Fatal(err)
	}
	snap, ok := m.Get("jdeadbeef")
	if !ok || snap.State != StateFailed || !strings.Contains(snap.Error, "interrupted") {
		t.Fatalf("interrupted job = (%+v, %v), want failed with an interruption reason", snap, ok)
	}
	if st := m.Stats(); st.Journal.RecoveredInterrupted != 1 {
		t.Fatalf("journal stats = %+v, want 1 recovered interrupted", st.Journal)
	}
}

// TestJournalTornTailTruncated: a crash mid-write leaves a half line;
// recovery keeps every complete record, truncates the tear, and counts
// it.
func TestJournalTornTailTruncated(t *testing.T) {
	path := journalPath(t)
	m := newJournaled(t, path, Options{})
	snap := submitWait(t, m, func(context.Context) (string, error) { return "kept", nil })

	// Tear the file: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"jtrunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := newJournaled(t, path, Options{})
	if v, s, ok := m2.Result(snap.ID); !ok || s.State != StateDone || v != "kept" {
		t.Fatalf("intact record lost to the torn tail: (%q, %+v, %v)", v, s, ok)
	}
	st := m2.Stats()
	if st.Journal.SkippedRecords != 1 || st.Journal.TruncatedBytes == 0 {
		t.Fatalf("journal stats = %+v, want 1 skipped record and truncated bytes > 0", st.Journal)
	}
	// The truncation is physical: a third boot sees a clean file.
	m3 := newJournaled(t, path, Options{})
	if st := m3.Stats(); st.Journal.SkippedRecords != 0 {
		t.Fatalf("third boot still skipping records: %+v", st.Journal)
	}
}

// TestJournalGarbageTailTruncated: undecodable bytes (not just a torn
// line) also truncate, dropping everything after the last good record.
func TestJournalGarbageTailTruncated(t *testing.T) {
	path := journalPath(t)
	m := newJournaled(t, path, Options{})
	snap := submitWait(t, m, func(context.Context) (string, error) { return "good", nil })
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\x00\x01 not json\n{\"also\":\"bad\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := newJournaled(t, path, Options{})
	if _, s, ok := m2.Result(snap.ID); !ok || s.State != StateDone {
		t.Fatalf("good record lost: (%+v, %v)", s, ok)
	}
	if st := m2.Stats(); st.Journal.SkippedRecords != 2 {
		t.Fatalf("journal stats = %+v, want 2 skipped records", st.Journal)
	}
}

// TestJournalCompaction: replay rewrites the journal to exactly the
// retained set, so the file tracks retention instead of growing without
// bound across restarts.
func TestJournalCompaction(t *testing.T) {
	path := journalPath(t)
	m := newJournaled(t, path, Options{MaxRetained: 2})
	for i := 0; i < 6; i++ {
		submitWait(t, m, func(context.Context) (string, error) { return "r", nil })
	}
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Reboot: replay + evict to MaxRetained + compact.
	m2 := newJournaled(t, path, Options{MaxRetained: 2})
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted) >= len(grown) {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", len(grown), len(compacted))
	}
	if got := len(m2.Snapshots()); got != 2 {
		t.Fatalf("replay retained %d jobs, want MaxRetained=2", got)
	}
	// The compacted journal is itself replayable.
	m3 := newJournaled(t, path, Options{MaxRetained: 2})
	if got := len(m3.Snapshots()); got != 2 {
		t.Fatalf("compacted journal replayed %d jobs, want 2", got)
	}
}

// TestJournalReplayRespectsTTL: replayed jobs age out exactly like live
// ones — a journal full of ancient jobs does not resurrect them.
func TestJournalReplayRespectsTTL(t *testing.T) {
	path := journalPath(t)
	now := time.Now()
	m := newJournaled(t, path, Options{})
	snap := submitWait(t, m, func(context.Context) (string, error) { return "old", nil })

	// Reboot with a clock far in the future: the job is past TTL.
	m2 := New[string](Options{
		TTL: time.Minute,
		Now: func() time.Time { return now.Add(time.Hour) },
	})
	if err := m2.AttachJournal(openJ(t, path), strEnc, strDec); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Get(snap.ID); ok {
		t.Fatal("a job an hour past its TTL survived replay")
	}
}

// TestJournalSyncPolicies smoke-tests each fsync policy end to end.
func TestJournalSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncTerminal, SyncAlways, SyncNever} {
		path := journalPath(t)
		j, err := OpenJournal(path, policy)
		if err != nil {
			t.Fatal(err)
		}
		m := New[string](Options{})
		if err := m.AttachJournal(j, strEnc, strDec); err != nil {
			t.Fatal(err)
		}
		snap := submitWait(t, m, func(context.Context) (string, error) { return "v", nil })
		j.Close()

		m2 := newJournaled(t, path, Options{})
		if v, s, ok := m2.Result(snap.ID); !ok || s.State != StateDone || v != "v" {
			t.Fatalf("policy %v: replay = (%q, %+v, %v)", policy, v, s, ok)
		}
	}
}
