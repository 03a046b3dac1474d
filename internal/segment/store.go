// Store: the on-disk segment/journal knowledge store. See the package
// comment for the design; this file implements open/recovery, committed
// appends, replay, compaction, and quarantine of corrupt or foreign files.

package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Options configure a Store.
type Options struct {
	// Fingerprint identifies the upstream this store's knowledge belongs
	// to. An existing store whose fingerprint does not match is quarantined
	// wholesale at Open and a fresh store is started.
	Fingerprint Fingerprint
	// InlineLimit is the encoded-delta size (bytes) up to which a
	// checkpoint is inlined into its journal record instead of sealed into
	// a segment file. 0 means the default (64 KiB).
	InlineLimit int
	// CompactAfter triggers compaction once this many commit records
	// accumulate in the journal. 0 means the default (16); negative
	// disables automatic compaction.
	CompactAfter int
	// Logf receives recovery and compaction warnings (default: discard).
	Logf func(format string, args ...any)
	// Failpoint, when set, is invoked at named stages of Append ("segment",
	// "journal-write", "journal-sync"); returning an error aborts the
	// append at that stage. It exists so tests can simulate a persistence
	// writer dying mid-checkpoint.
	Failpoint func(stage string) error
}

func (o Options) withDefaults() Options {
	if o.InlineLimit == 0 {
		o.InlineLimit = 64 << 10
	}
	if o.CompactAfter == 0 {
		o.CompactAfter = 16
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Stats describe a store's on-disk and lifetime state.
type Stats struct {
	// Seq is the sequence number of the last committed record.
	Seq uint64 `json:"seq"`
	// JournalRecords is the number of committed commit records currently
	// in the journal (drops back to 1 after compaction).
	JournalRecords int `json:"journalRecords"`
	// SegmentFiles is the number of live immutable segment files.
	SegmentFiles int `json:"segmentFiles"`
	// Checkpoints counts successful Append calls since Open.
	Checkpoints int64 `json:"checkpoints"`
	// Compactions counts journal compactions since Open.
	Compactions int64 `json:"compactions"`
	// BytesAppended counts bytes durably written (journal + segments)
	// since Open.
	BytesAppended int64 `json:"bytesAppended"`
	// ReplayedDeltas is the number of committed deltas handed to Replay.
	ReplayedDeltas int `json:"replayedDeltas"`
	// DroppedRecords counts committed-looking records discarded during
	// open/replay recovery (torn journal tail lines, records referencing
	// corrupt segments).
	DroppedRecords int `json:"droppedRecords"`
}

// Store is an open segment/journal knowledge store. All methods are safe
// for concurrent use; Append and Compact serialize internally.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	journal  *os.File
	goodSize int64 // journal bytes known durable; rollback point for failed appends
	seq      uint64
	records  []*journalRecord // committed commit records, in order
	broken   bool             // a failed append could not be rolled back

	checkpoints    int64
	compactions    int64
	bytesAppended  int64
	replayedDeltas int
	dropped        int
}

// Open opens (or creates) the store in dir, recovering from any torn
// journal tail left by a crash. Foreign stores (fingerprint mismatch) are
// quarantined and a fresh store is started in their place.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{dir: dir, opts: opts}
	if err := os.MkdirAll(s.segmentsDir(), 0o755); err != nil {
		return nil, err
	}
	jpath := s.journalPath()
	if _, err := os.Stat(jpath); os.IsNotExist(err) {
		if err := s.initJournal(); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	} else if err := s.recover(); err != nil {
		return nil, err
	}
	s.sweepOrphans()
	var err error
	s.journal, err = os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if fi, err := s.journal.Stat(); err == nil {
		s.goodSize = fi.Size()
	}
	return s, nil
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, "journal") }
func (s *Store) segmentsDir() string { return filepath.Join(s.dir, "segments") }
func (s *Store) segmentPath(name string) string {
	return filepath.Join(s.segmentsDir(), name)
}

// initJournal writes a fresh journal holding only the header record.
func (s *Store) initJournal() error {
	line, err := encodeRecord(&journalRecord{Kind: "header", Format: Format, Fingerprint: &s.opts.Fingerprint})
	if err != nil {
		return err
	}
	return WriteBytesAtomic(s.journalPath(), line)
}

// recover scans an existing journal, truncating a torn tail and
// quarantining the whole store when it belongs to another upstream.
func (s *Store) recover() error {
	recs, validBytes, torn, err := scanJournal(s.journalPath())
	if err != nil {
		return err
	}
	if len(recs) == 0 || recs[0].Kind != "header" || recs[0].Format != Format ||
		recs[0].Fingerprint == nil || !recs[0].Fingerprint.Matches(s.opts.Fingerprint) {
		s.opts.Logf("segment: store at %s has no valid header, another format generation or a foreign fingerprint; quarantining and starting cold", s.dir)
		s.dropped += len(recs)
		if err := s.quarantineAll(); err != nil {
			return err
		}
		return s.initJournal()
	}
	if torn {
		s.opts.Logf("segment: journal has a torn tail (crash mid-append); truncating to last committed record (%d bytes)", validBytes)
		s.dropped++
		if err := os.Truncate(s.journalPath(), validBytes); err != nil {
			return err
		}
		if err := SyncDir(s.dir); err != nil {
			return err
		}
	}
	for _, rec := range recs[1:] {
		switch rec.Kind {
		case "delta", "segment":
			s.records = append(s.records, rec)
			if rec.Seq > s.seq {
				s.seq = rec.Seq
			}
		default:
			// Unknown record kinds from a future format are not safely
			// skippable (later records may depend on them); treat like a
			// foreign store.
			s.opts.Logf("segment: journal holds unknown record kind %q; quarantining store", rec.Kind)
			s.records = nil
			s.seq = 0
			s.dropped += len(recs)
			if err := s.quarantineAll(); err != nil {
				return err
			}
			return s.initJournal()
		}
	}
	return nil
}

// quarantineAll moves the journal and every segment file into quarantine/.
func (s *Store) quarantineAll() error {
	if err := s.quarantine(s.journalPath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	names, _ := filepath.Glob(filepath.Join(s.segmentsDir(), "*.seg"))
	for _, n := range names {
		if err := s.quarantine(n); err != nil {
			return err
		}
	}
	return nil
}

// quarantine moves one file aside under quarantine/ with a unique name.
func (s *Store) quarantine(path string) error {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	dst := filepath.Join(qdir, fmt.Sprintf("%d-%s", time.Now().UnixNano(), filepath.Base(path)))
	if err := os.Rename(path, dst); err != nil {
		return err
	}
	s.opts.Logf("segment: quarantined %s -> %s", path, dst)
	return SyncDir(s.dir)
}

// sweepOrphans quarantines segment files not referenced by the journal —
// leftovers of a crash between writing a segment and committing it, or
// between a compaction's journal rewrite and its cleanup.
func (s *Store) sweepOrphans() {
	referenced := make(map[string]bool, len(s.records))
	for _, rec := range s.records {
		if rec.Kind == "segment" {
			referenced[rec.File] = true
		}
	}
	names, _ := filepath.Glob(filepath.Join(s.segmentsDir(), "*.seg"))
	for _, n := range names {
		if !referenced[filepath.Base(n)] {
			s.opts.Logf("segment: uncommitted segment file %s (crash before commit); quarantining", filepath.Base(n))
			if err := s.quarantine(n); err != nil {
				s.opts.Logf("segment: quarantine %s: %v", n, err)
			}
		}
	}
}

// Replay hands every committed delta, in commit order, to fn. It must be
// called (once) before the first Append. If a committed segment file turns
// out missing or corrupt, it is quarantined, the journal is rewritten to
// the valid prefix, and replay stops there: knowledge committed before the
// corruption survives, later records are dropped with a logged warning.
func (s *Store) Replay(fn func(*Delta) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, rec := range s.records {
		var deltas []*Delta
		switch rec.Kind {
		case "delta":
			deltas = []*Delta{rec.Delta}
		case "segment":
			sf, err := s.readSegment(rec)
			if err != nil {
				s.opts.Logf("segment: committed segment %s unreadable (%v); quarantining and recovering to last good record", rec.File, err)
				if qerr := s.quarantine(s.segmentPath(rec.File)); qerr != nil && !os.IsNotExist(qerr) {
					s.opts.Logf("segment: quarantine %s: %v", rec.File, qerr)
				}
				return s.truncateRecordsLocked(i)
			}
			deltas = sf.Deltas
		}
		for _, d := range deltas {
			if err := fn(d); err != nil {
				s.opts.Logf("segment: replaying committed record seq %d failed (%v); recovering to last good record", rec.Seq, err)
				return s.truncateRecordsLocked(i)
			}
			s.replayedDeltas++
		}
	}
	return nil
}

// readSegment loads and verifies one committed segment file.
func (s *Store) readSegment(rec *journalRecord) (*segmentFile, error) {
	data, err := os.ReadFile(s.segmentPath(rec.File))
	if err != nil {
		return nil, err
	}
	if sum := shaHex(data); sum != rec.SHA256 {
		return nil, fmt.Errorf("sha256 %s, committed %s", sum, rec.SHA256)
	}
	return decodeSegment(data, s.opts.Fingerprint)
}

// truncateRecordsLocked drops committed records from index i on and
// rewrites the journal to match, so disk state agrees with what was
// replayed. Callers hold s.mu.
func (s *Store) truncateRecordsLocked(i int) error {
	s.dropped += len(s.records) - i
	s.records = s.records[:i]
	if err := s.rewriteJournalLocked(); err != nil {
		return err
	}
	s.sweepOrphans()
	return nil
}

// rewriteJournalLocked atomically rewrites the journal to header +
// s.records and repoints the append handle at the new file.
func (s *Store) rewriteJournalLocked() error {
	var buf []byte
	line, err := encodeRecord(&journalRecord{Kind: "header", Format: Format, Fingerprint: &s.opts.Fingerprint})
	if err != nil {
		return err
	}
	buf = append(buf, line...)
	for _, rec := range s.records {
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	if err := WriteBytesAtomic(s.journalPath(), buf); err != nil {
		return err
	}
	if s.journal != nil {
		s.journal.Close()
	}
	s.journal, err = os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.goodSize = int64(len(buf))
	s.broken = false
	return nil
}

// failpoint invokes the test-only failure hook.
func (s *Store) failpoint(stage string) error {
	if s.opts.Failpoint == nil {
		return nil
	}
	return s.opts.Failpoint(stage)
}

// Append durably commits one checkpoint delta: small deltas are inlined
// into the journal record, large ones are sealed into an immutable segment
// file first and committed by reference. Append returns only after the
// commit record is fsynced; on error nothing is committed and the store
// rolls the journal back to its last durable state, so the caller may
// safely retry with the same (or a merged) delta.
func (s *Store) Append(d *Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		return fmt.Errorf("segment: store is broken (a failed append could not be rolled back)")
	}
	rec := &journalRecord{Kind: "delta", Seq: s.seq + 1, Delta: d}
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if len(line) > s.opts.InlineLimit {
		body, err := encodeSegment(s.opts.Fingerprint, []*Delta{d})
		if err != nil {
			return err
		}
		sum := shaHex(body)
		name := fmt.Sprintf("%08d-%s.seg", s.seq+1, sum[:12])
		if err := s.failpoint("segment"); err != nil {
			return err
		}
		if err := WriteBytesAtomic(s.segmentPath(name), body); err != nil {
			return err
		}
		s.bytesAppended += int64(len(body))
		rec = &journalRecord{Kind: "segment", Seq: s.seq + 1, File: name, SHA256: sum, Deltas: 1}
		if line, err = encodeRecord(rec); err != nil {
			return err
		}
	}
	if err := s.appendLineLocked(line); err != nil {
		return err
	}
	s.seq++
	s.records = append(s.records, rec)
	s.checkpoints++
	if s.opts.CompactAfter > 0 && len(s.records) >= s.opts.CompactAfter {
		if err := s.compactLocked(); err != nil {
			// The append itself is committed; compaction is advisory and
			// will be retried after the next append.
			s.opts.Logf("segment: compaction failed (will retry): %v", err)
		}
	}
	return nil
}

// appendLineLocked writes one framed record to the journal and fsyncs it.
// On failure it truncates back to the last durable size so an in-process
// retry cannot follow garbage bytes with a valid line.
func (s *Store) appendLineLocked(line []byte) error {
	rollback := func(err error) error {
		if terr := s.journal.Truncate(s.goodSize); terr != nil {
			s.broken = true
			return fmt.Errorf("%w (rollback failed: %v)", err, terr)
		}
		if _, serr := s.journal.Seek(s.goodSize, 0); serr != nil {
			s.broken = true
		}
		return err
	}
	if err := s.failpoint("journal-write"); err != nil {
		return rollback(err)
	}
	if _, err := s.journal.Write(line); err != nil {
		return rollback(err)
	}
	if err := s.failpoint("journal-sync"); err != nil {
		return rollback(err)
	}
	if err := s.journal.Sync(); err != nil {
		return rollback(err)
	}
	s.goodSize += int64(len(line))
	s.bytesAppended += int64(len(line))
	return nil
}

// compactLocked folds every committed delta into a single segment file and
// rewrites the journal to one commit record. Compaction reads only
// committed state, never the live engine, so it is safe at any time; a
// crash mid-compaction recovers to either the old chain or the new record.
// Caller holds s.mu.
func (s *Store) compactLocked() error {
	if len(s.records) <= 1 {
		return nil
	}
	var deltas []*Delta
	oldFiles := make([]string, 0, len(s.records))
	for _, rec := range s.records {
		switch rec.Kind {
		case "delta":
			deltas = append(deltas, rec.Delta)
		case "segment":
			sf, err := s.readSegment(rec)
			if err != nil {
				return fmt.Errorf("segment: compaction aborted, committed segment %s unreadable: %w", rec.File, err)
			}
			deltas = append(deltas, sf.Deltas...)
			oldFiles = append(oldFiles, rec.File)
		}
	}
	body, err := encodeSegment(s.opts.Fingerprint, deltas)
	if err != nil {
		return err
	}
	sum := shaHex(body)
	name := fmt.Sprintf("%08d-%s.seg", s.seq+1, sum[:12])
	if err := WriteBytesAtomic(s.segmentPath(name), body); err != nil {
		return err
	}
	s.bytesAppended += int64(len(body))
	s.seq++
	s.records = []*journalRecord{{Kind: "segment", Seq: s.seq, File: name, SHA256: sum, Deltas: len(deltas)}}
	if err := s.rewriteJournalLocked(); err != nil {
		return err
	}
	for _, f := range oldFiles {
		if f != name {
			os.Remove(s.segmentPath(f))
		}
	}
	_ = SyncDir(s.segmentsDir())
	s.compactions++
	return nil
}

// Stats returns the store's current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := 0
	for _, rec := range s.records {
		if rec.Kind == "segment" {
			segs++
		}
	}
	return Stats{
		Seq:            s.seq,
		JournalRecords: len(s.records),
		SegmentFiles:   segs,
		Checkpoints:    s.checkpoints,
		Compactions:    s.compactions,
		BytesAppended:  s.bytesAppended,
		ReplayedDeltas: s.replayedDeltas,
		DroppedRecords: s.dropped,
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the journal handle. It does not checkpoint; callers
// wanting a final commit append it first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

func shaHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
