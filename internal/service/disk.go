package service

// Storage guardrails (docs/RESILIENCE.md §3). A disk-budget accountant
// walks the jobs directory on a poll cadence (when a budget is set or the
// service is degraded; otherwise the stats readers measure on demand)
// and, when usage exceeds the configured budget, reclaims space in strict
// safety order:
//
//  1. checkpoint directories of terminal jobs (their result file is the
//     durable artifact; the checkpoints are dead weight),
//  2. old checkpoint generations of live jobs (PruneKeep(1) — the
//     newest generation, which a resume needs, is never touched).
//
// Independently, every checkpoint and result write goes through durably:
// an ENOSPC (real or injected via the ckptstore/write=diskfull failpoint)
// flips the service into a degraded state — stop admitting, keep
// draining — and the write RETRIES in place until space returns or the
// job's context dies, so an in-flight job survives a full disk instead
// of failing. A spec write that hits ENOSPC degrades the service too and
// rejects the submission with Retry-After. The monitor probes the disk
// each tick and lifts the degraded state when a probe write lands and
// usage is back under budget.

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckptstore"
)

// DefaultDiskPoll is the accountant cadence when Config.DiskPoll is 0.
const DefaultDiskPoll = 2 * time.Second

// DiskStats is the operator view of the storage guardrails.
type DiskStats struct {
	// UsageBytes is the jobs directory's last measured footprint.
	UsageBytes int64 `json:"usage_bytes"`
	// BudgetBytes is the configured cap (0 = unbudgeted).
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// Degraded is why admission is stopped ("" = healthy).
	Degraded string `json:"degraded,omitempty"`
	// GCRuns counts background reclamation passes that freed something.
	GCRuns uint64 `json:"gc_runs,omitempty"`
	// GCFreedBytes totals the bytes reclaimed by background GC.
	GCFreedBytes int64 `json:"gc_freed_bytes,omitempty"`
	// CheckpointPublishes and ResultWrites count the checkpoint
	// generations and result files this daemon life has written; their
	// ratio to finished jobs is the durable writes a job costs.
	CheckpointPublishes uint64 `json:"checkpoint_publishes"`
	ResultWrites        uint64 `json:"result_writes"`
	// CheapestPublishSec is the cheapest checkpoint publish this daemon
	// life has measured (0 = none yet): the cost a fresh job's first leg
	// reports to the harness's publish cadence.
	CheapestPublishSec float64 `json:"cheapest_publish_sec,omitempty"`
}

// diskStatsLocked snapshots the disk block; s.mu must be held.
func (s *Service) diskStatsLocked() DiskStats {
	d := s.disk
	d.CheckpointPublishes = s.publishes.Load()
	d.ResultWrites = s.resultWrites.Load()
	d.CheapestPublishSec = time.Duration(s.cheapestSave.Load()).Seconds()
	return d
}

// diskMonitor runs the accountant loop: poll usage, GC over budget,
// probe for recovery while degraded.
func (s *Service) diskMonitor() {
	ticker := time.NewTicker(s.cfg.DiskPoll)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
		case <-s.gcKick:
		}
		s.diskTick()
	}
}

// kickGC nudges the monitor out of its poll interval (a guarded write
// just hit ENOSPC and wants space reclaimed now).
func (s *Service) kickGC() {
	select {
	case s.gcKick <- struct{}{}:
	default:
	}
}

// diskTick is one accountant pass. With no budget to enforce and no
// degraded state to probe it has nothing to decide, so it leaves the
// walk, whose cost grows with the retained jobs, to refreshUsage.
func (s *Service) diskTick() {
	if s.cfg.DiskBudgetBytes <= 0 && s.degradedReason() == "" {
		return
	}
	usage := s.measureUsage()
	if s.cfg.DiskBudgetBytes > 0 && usage > s.cfg.DiskBudgetBytes {
		s.enterDegraded(fmt.Sprintf("disk budget exceeded: %d of %d bytes", usage, s.cfg.DiskBudgetBytes))
		freed := s.runGC()
		if freed > 0 {
			usage = s.measureUsage()
		}
	}
	s.mu.Lock()
	s.disk.UsageBytes, s.usageAt = usage, time.Now()
	degraded := s.disk.Degraded != ""
	s.mu.Unlock()
	if !degraded {
		return
	}
	// Recovery probe: degraded lifts only when a write lands AND usage is
	// back under budget (when one is set).
	if s.cfg.DiskBudgetBytes > 0 && usage > s.cfg.DiskBudgetBytes {
		return
	}
	if s.probeWrite() {
		s.clearDegraded()
	}
}

// refreshUsage re-measures DiskStats.UsageBytes for an operator view
// when the last measurement is at least a poll interval old: at most one
// walk per DiskPoll, however often the stats are read.
func (s *Service) refreshUsage() {
	s.mu.Lock()
	due := time.Since(s.usageAt) >= s.cfg.DiskPoll
	if due {
		s.usageAt = time.Now() // claimed: concurrent readers skip the walk
	}
	s.mu.Unlock()
	if !due {
		return
	}
	usage := s.measureUsage()
	s.mu.Lock()
	s.disk.UsageBytes = usage
	s.mu.Unlock()
}

// measureUsage walks the jobs directory. Errors under the walk are
// skipped: a file deleted mid-walk must not abort accounting.
func (s *Service) measureUsage() int64 {
	var total int64
	root := filepath.Join(s.cfg.DataDir, jobsDirName)
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == root {
				return err
			}
			return nil
		}
		if d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// runGC reclaims space in safety order and returns the bytes freed.
func (s *Service) runGC() int64 {
	var freed int64
	// Phase 1: terminal jobs' checkpoint directories. The result file is
	// the durable artifact; nothing will resume from these stores.
	s.mu.Lock()
	var terminal, live []*job
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state.Terminal() {
			terminal = append(terminal, j)
		} else {
			live = append(live, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	sortJobsByID(terminal) // oldest jobs reclaimed first
	sortJobsByID(live)
	for _, j := range terminal {
		dir := filepath.Join(j.dir, ckptDirName)
		n := dirSize(dir)
		if n == 0 {
			continue
		}
		if err := os.RemoveAll(dir); err == nil {
			freed += n
			s.cfg.Logf("service: gc reclaimed %d bytes of checkpoints from terminal %s", n, j.id)
		}
	}
	// Phase 2: shrink live jobs' retained history to the single newest
	// generation — exactly what a resume needs, nothing more.
	for _, j := range live {
		dir := filepath.Join(j.dir, ckptDirName)
		if dirSize(dir) == 0 {
			continue
		}
		store, err := ckptstore.Open(dir, ckptstore.Options{Retain: s.cfg.Retain})
		if err != nil {
			continue
		}
		n, err := store.PruneKeep(1)
		if err == nil && n > 0 {
			freed += n
			s.cfg.Logf("service: gc pruned %d bytes of old generations from live %s", n, j.id)
		}
	}
	if freed > 0 {
		s.mu.Lock()
		s.disk.GCRuns++
		s.disk.GCFreedBytes += freed
		s.mu.Unlock()
	}
	return freed
}

// dirSize totals the files under dir (0 when absent).
func dirSize(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// probeWrite checks that the data directory accepts a durable write
// again. It goes through the same atomic path as real checkpoints so an
// injected ckptstore/write diskfull failpoint gates it too.
func (s *Service) probeWrite() bool {
	path := filepath.Join(s.cfg.DataDir, ".diskprobe")
	err := ckptstore.WriteFileAtomic(path, []byte("probe"), 0o644)
	_ = os.Remove(path)
	return err == nil
}

// enterDegraded flips the service into the degraded state (idempotent;
// the first reason sticks until recovery).
func (s *Service) enterDegraded(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk.Degraded != "" {
		return
	}
	s.disk.Degraded = reason
	s.cfg.Logf("service: DEGRADED: %s (admission stopped, draining continues)", reason)
}

// clearDegraded lifts the degraded state.
func (s *Service) clearDegraded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk.Degraded == "" {
		return
	}
	s.cfg.Logf("service: recovered from degraded state (%s)", s.disk.Degraded)
	s.disk.Degraded = ""
}

// degradedReason snapshots the degraded state ("" = healthy).
func (s *Service) degradedReason() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk.Degraded
}

// durably runs a write, retrying it in place while the disk is full:
// each ENOSPC flips the service degraded, kicks GC and waits a poll
// interval, until the write lands or ctx dies (then the ENOSPC is
// returned, so runJob can park or cancel the job instead of failing it).
// Any other error returns at once.
func (s *Service) durably(ctx context.Context, what string, write func() error) error {
	for attempt := 0; ; attempt++ {
		err := write()
		if err == nil {
			if attempt > 0 {
				s.cfg.Logf("service: %s landed after %d disk-full retries", what, attempt)
			}
			return nil
		}
		if !ckptstore.IsDiskFull(err) {
			return err
		}
		s.enterDegraded(fmt.Sprintf("disk full persisting %s: %v", what, err))
		s.kickGC()
		select {
		case <-ctx.Done():
			return err
		case <-time.After(s.cfg.DiskPoll):
		}
	}
}

// notePublish counts one checkpoint publish that took d and keeps the
// cheapest publish the daemon has measured.
func (s *Service) notePublish(d time.Duration) {
	s.publishes.Add(1)
	for {
		cur := s.cheapestSave.Load()
		if cur > 0 && cur <= int64(d) || s.cheapestSave.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// guardedStore is a job's checkpoint store behind the ENOSPC guard
// (durably); it satisfies harness.Store. The store directory is created
// by the first Save, so a job that never publishes leaves none. cost is
// the publish cost reported to the harness (0 = unknown; see runLeg).
type guardedStore struct {
	s     *Service
	dir   string
	store *ckptstore.Store // nil until opened
	cost  time.Duration
	ctx   context.Context
	jobID string
}

func (g *guardedStore) PublishCost() time.Duration { return g.cost }

// Load is called only to resume, which runLeg asks for only when it
// opened the store and found generations.
func (g *guardedStore) Load() (*ckptstore.Snapshot, error) { return g.store.Load() }

func (g *guardedStore) Save(payload []byte) (gen uint64, err error) {
	err = g.s.durably(g.ctx, g.jobID+" checkpoint", func() error {
		start := time.Now()
		if g.store == nil {
			store, err := ckptstore.Open(g.dir, ckptstore.Options{Retain: g.s.cfg.Retain})
			if err != nil {
				return err
			}
			g.store = store
		}
		var err error
		if gen, err = g.store.Save(payload); err == nil {
			g.s.notePublish(time.Since(start))
		}
		return err
	})
	return gen, err
}
