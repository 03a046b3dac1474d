// Service-level persistence wiring: the segment/journal data directory is
// the only persistence path (incremental, crash-safe).
//
// Federation layout: every namespace persists into its OWN segment store
// under data-dir/<namespace>/, guarded by its own fingerprint — cross-tenant
// knowledge can never mix on disk, and a namespace registered while the
// data dir is open gets its store immediately. (Pre-federation data dirs
// wrote the journal at the data-dir root; those are simply ignored — move
// the journal/segments into a "default/" subdirectory to migrate. See
// docs/persistence.md.) A portable export of a namespace is a copy of its
// subdirectory taken after a drain.

package service

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/segment"
)

// PersistConfig configures the service's segment-store persistence.
type PersistConfig struct {
	// CheckpointInterval is the background checkpoint period; 0 disables
	// background checkpointing (knowledge then commits only at drain).
	CheckpointInterval time.Duration
	// Logf receives recovery warnings and background checkpoint failures
	// (nil silences them). Messages are prefixed with the namespace.
	Logf func(format string, args ...any)
}

// OpenDataDir opens (or initializes) one segment store per registered
// namespace under dir/<namespace>/, replays each store's committed
// knowledge into its engine, and starts incremental checkpointing.
// Namespaces registered later get their store at registration time.
// Recovery is automatic: torn journal tails are truncated, corrupt segment
// files quarantined, and a store fingerprinted for a different upstream is
// quarantined wholesale — in every case the service boots with whatever
// knowledge was committed and intact, never refusing to start over bad
// state. Call before serving. An error leaves already-attached namespaces
// persisting; treat it as fatal and discard the server.
func (s *Server) OpenDataDir(dir string, cfg PersistConfig) error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.dataDir != "" {
		return fmt.Errorf("service: data dir already open")
	}
	s.dataDir, s.persistCfg = dir, cfg
	for _, t := range s.tenantList() {
		if err := s.attachTenant(t); err != nil {
			return err
		}
	}
	return nil
}

// attachTenant opens one namespace's segment store under
// dataDir/<namespace>/ and attaches its engine's persister. No-op when the
// engine already persists. Caller holds persistMu.
func (s *Server) attachTenant(t *tenant) error {
	eng := t.engine()
	if eng.Persister() != nil {
		return nil
	}
	name := t.name
	logf := s.persistCfg.Logf
	if logf != nil {
		base := logf
		logf = func(format string, args ...any) {
			base("["+name+"] "+format, args...)
		}
	}
	st, err := segment.Open(filepath.Join(s.dataDir, name), segment.Options{
		Fingerprint: eng.PersistFingerprint(),
		Logf:        logf,
	})
	if err != nil {
		return fmt.Errorf("service: open data dir for %q: %w", name, err)
	}
	if _, err := eng.AttachPersistence(st, core.PersistOptions{
		Interval: s.persistCfg.CheckpointInterval,
		Logf:     logf,
	}); err != nil {
		st.Close()
		return fmt.Errorf("service: attach persistence for %q: %w", name, err)
	}
	return nil
}

// Checkpoint commits every namespace's knowledge accumulated since its last
// checkpoint to the data directory. A no-op success when no data dir is
// open; on failure every namespace is still attempted and the first error
// is returned.
func (s *Server) Checkpoint() error {
	var first error
	for _, t := range s.tenantList() {
		if p := t.engine().Persister(); p != nil {
			if err := p.Checkpoint(); err != nil && first == nil {
				first = fmt.Errorf("service: checkpoint %q: %w", t.name, err)
			}
		}
	}
	return first
}

// ClosePersistence takes a final checkpoint of every namespace and closes
// their stores. Call after the HTTP drain, when no more requests mutate the
// engines. Safe to call without an open data dir (no-op) and safe to call
// twice.
func (s *Server) ClosePersistence() error {
	var first error
	for _, t := range s.tenantList() {
		if p := t.engine().Persister(); p != nil {
			if err := p.Close(); err != nil && first == nil {
				first = fmt.Errorf("service: close persistence %q: %w", t.name, err)
			}
		}
	}
	return first
}
