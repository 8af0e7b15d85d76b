// Command chaossoak is the end-to-end resilience soak for the discovery
// daemon (docs/RESILIENCE.md §5). Each round it runs the real service as
// a child process under a seeded, randomized failpoint schedule — torn
// temp files, torn journal records, transient disk-full windows, slow
// fsyncs, straggler and failing partitions — SIGKILLs the daemon mid-job one or more times,
// and drives everything through internal/client's retrying API. After
// the dust settles the round must uphold four invariants:
//
//  1. No accepted job is lost: every submission that was acknowledged
//     reaches a terminal state across any number of daemon deaths.
//  2. No idempotency key executes twice: retried submissions land on the
//     original job, and the daemon holds exactly one job per key.
//  3. Completed results are bit-identical to a fault-free in-process
//     reference run — combos, F scores, cover and work counters.
//  4. The store stays within its configured disk budget once the
//     background GC has caught up.
//
// Each round then runs a pre-acknowledgement phase: once the daemon has
// measured a checkpoint publish, a fresh submission that finds the queue
// empty starts at once and its POST waits, up to a budget of
// harness.PublishRatio publish costs, for the job's first durable write.
// The phase prices a daemon life, SIGKILLs it while such submissions
// are unanswered, restarts it with a failpoint on the deferred spec
// commit, and holds the phase's jobs to invariants 1-3 as well.
//
// The chaos child is this same binary re-exec'd with -serve, so the soak
// needs no separately built daemon and every SIGKILL hits a real
// process whose only durable state is the round's data directory.
//
// Determinism: all randomness (schedules, specs, kill timing) derives
// from -seed via splitmix64, so a failing round is rerunnable with
// -rounds 1 -seed <round seed>. Wall-clock interleaving still varies,
// but the invariants hold for every interleaving — that is the point.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/client"
	"repro/internal/failpoint"
	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	// Parent (soak driver) flags.
	rounds := flag.Int("rounds", 8, "chaos rounds to run")
	seed := flag.Uint64("seed", 1, "soak seed; every schedule, spec, and kill time derives from it")
	jobs := flag.Int("jobs", 3, "jobs submitted per round")
	kills := flag.Int("kills", 2, "planned SIGKILLs per round")
	work := flag.String("work", "", "working directory (default: a fresh temp dir)")
	keep := flag.Bool("keep", false, "keep round directories on success (failures are always kept)")
	roundTimeout := flag.Duration("round-timeout", 3*time.Minute, "per-round deadline")
	diskBudget := flag.Int64("disk-budget", 64<<20, "daemon disk budget per round (0 disables the budget invariant)")

	// Child (daemon) flags, used with the internal -serve mode.
	serve := flag.Bool("serve", false, "internal: run the daemon child instead of the soak")
	addr := flag.String("addr", "127.0.0.1:0", "child: listen address")
	addrFile := flag.String("addr-file", "", "child: write the bound address here")
	dataDir := flag.String("data-dir", "", "child: durable state directory")
	flag.Parse()

	if *serve {
		os.Exit(runChild(*addr, *addrFile, *dataDir, *diskBudget))
	}
	s := &soak{
		rounds:       *rounds,
		jobs:         *jobs,
		kills:        *kills,
		keep:         *keep,
		roundTimeout: *roundTimeout,
		diskBudget:   *diskBudget,
		rng:          rng{state: *seed},
		refs:         map[string]*harness.Result{},
		logf:         log.New(os.Stdout, "chaossoak: ", log.LstdFlags|log.Lmsgprefix).Printf,
	}
	os.Exit(s.run(*work))
}

// runChild is the re-exec'd daemon: failpoints from the environment, the
// full resilience config, and no graceful shutdown — the parent only
// ever SIGKILLs it, because that is the failure mode under test.
func runChild(addr, addrFile, dataDir string, diskBudget int64) int {
	logger := log.New(os.Stderr, "soak-daemon: ", log.LstdFlags|log.Lmsgprefix)
	if dataDir == "" {
		logger.Print("-data-dir is required")
		return 1
	}
	if n, err := failpoint.FromEnv(); err != nil {
		logger.Printf("arming %s: %v", failpoint.EnvVar, err)
		return 1
	} else if n > 0 {
		logger.Printf("armed %d failpoint(s): %s", n, os.Getenv(failpoint.EnvVar))
	}
	svc, err := service.Open(service.Config{
		DataDir:         dataDir,
		DiskBudgetBytes: diskBudget,
		DiskPoll:        100 * time.Millisecond, // fast GC/ENOSPC retry so rounds converge quickly
		Logf:            logger.Printf,
	})
	if err != nil {
		logger.Printf("open: %v", err)
		return 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return 1
	}
	if addrFile != "" {
		// This consumes the first ckptstore/{write,sync,rename} failpoint
		// hit of the life; chaosSchedule keeps every failing window past
		// hit 1 so the address always publishes.
		if err := ckptstore.WriteFileAtomic(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Printf("writing -addr-file: %v", err)
			return 1
		}
	}
	logger.Printf("serving on http://%s (data %s)", ln.Addr(), dataDir)
	if err := (&http.Server{Handler: svc.Handler()}).Serve(ln); err != nil {
		logger.Printf("serve: %v", err)
	}
	return 1 // Serve only returns on error; clean exit is SIGKILL
}

// rng is the deterministic schedule/spec/timing source (splitmix64, the
// same generator the harness and client use for retry jitter).
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns a uniform int in [lo, hi].
func (r *rng) between(lo, hi int) int {
	return lo + int(r.next()%uint64(hi-lo+1))
}

// chance fires with probability num/den.
func (r *rng) chance(num, den uint64) bool { return r.next()%den < num }

// soak drives the rounds.
type soak struct {
	rounds, jobs, kills int
	keep                bool
	roundTimeout        time.Duration
	diskBudget          int64
	rng                 rng
	// refs caches fault-free reference results by spec identity so
	// repeated cohorts across rounds are computed once.
	refs map[string]*harness.Result
	logf func(string, ...any)

	started, unplanned int // daemon lives: planned starts and crash restarts
	// degradations counts the times a daemon life entered the disk-full
	// degraded state, summed over the campaign.
	degradations int
	// preAckKills counts the submissions still unanswered when a
	// pre-acknowledgement phase killed their daemon, and withdrawals the
	// jobs a daemon life withdrew before acknowledging them, over the
	// campaign.
	preAckKills, withdrawals int
	// lives holds every daemon the current round started, so the round
	// can kill them all however it ends.
	lives []*daemon
}

func (s *soak) run(work string) int {
	exe, err := os.Executable()
	if err != nil {
		s.logf("cannot locate own binary: %v", err)
		return 1
	}
	if work == "" {
		work, err = os.MkdirTemp("", "chaossoak-*")
		if err != nil {
			s.logf("mkdir temp: %v", err)
			return 1
		}
	} else if err := os.MkdirAll(work, 0o755); err != nil {
		s.logf("mkdir %s: %v", work, err)
		return 1
	}
	s.logf("%d rounds, %d jobs x %d kills per round, work dir %s", s.rounds, s.jobs, s.kills, work)

	// SIGINT/SIGTERM cancels the campaign between (and inside) rounds.
	ctx, stop := harness.SignalContext(context.Background())
	defer stop()
	for r := 1; r <= s.rounds; r++ {
		if err := ctx.Err(); err != nil {
			s.logf("campaign canceled at round %d: %v", r, err)
			return 1
		}
		roundDir := filepath.Join(work, fmt.Sprintf("round%03d", r))
		start := time.Now()
		tl := &tailBuf{}
		if err := s.round(ctx, exe, roundDir, r, tl); err != nil {
			s.logf("round %d FAILED after %s: %v", r, time.Since(start).Round(time.Millisecond), err)
			s.logf("round state kept in %s", roundDir)
			s.logf("daemon log tail:\n%s", tl.tail(40))
			return 1
		}
		s.logf("round %d ok in %s", r, time.Since(start).Round(time.Millisecond))
		if !s.keep {
			_ = os.RemoveAll(roundDir)
		}
	}
	// A campaign whose disk-full windows never met a checkpoint write
	// did not test the degraded mode at all.
	if s.degradations == 0 {
		s.logf("FAIL: %d rounds provoked no disk-full degradation", s.rounds)
		return 1
	}
	// Nor did one whose kills never caught a submission before its
	// acknowledgement test the deferred spec commit.
	if s.preAckKills == 0 {
		s.logf("FAIL: %d rounds killed no daemon during an unanswered submission", s.rounds)
		return 1
	}
	s.logf("PASS: %d/%d rounds, %d daemon lives (%d injected-crash restarts beyond the %d planned kills per round), %d disk-full degradations, %d submissions killed before their answer, %d jobs withdrawn before acknowledgement",
		s.rounds, s.rounds, s.started, s.unplanned, s.kills, s.degradations, s.preAckKills, s.withdrawals)
	if !s.keep {
		_ = os.RemoveAll(work)
	}
	return 0
}

// round runs one full chaos round and checks the four invariants.
func (s *soak) round(parent context.Context, exe, roundDir string, r int, tl *tailBuf) error {
	if err := os.MkdirAll(filepath.Join(roundDir, "data"), 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(parent, s.roundTimeout)
	defer cancel()
	defer s.killLives()

	// Life 1 gets a benign schedule (delays only): submissions and the
	// idempotency-key persistence must be acknowledged under timing
	// chaos, not failing writes — hard faults arrive with the kills.
	d, err := s.start(exe, roundDir, "127.0.0.1:0", s.benignSchedule(), tl)
	if err != nil {
		return err
	}
	boundAddr, err := waitAddr(filepath.Join(roundDir, "addr"), d, 10*time.Second)
	if err != nil {
		return err
	}
	cli, err := client.New(client.Config{
		BaseURL:     "http://" + boundAddr,
		Timeout:     5 * time.Second,
		MaxRetries:  6,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  time.Second,
		RetrySeed:   int64(r),
	})
	if err != nil {
		return err
	}
	if err := waitHealthy(ctx, cli, d); err != nil {
		return err
	}

	// Submit the round's jobs with explicit idempotency keys.
	specs := make([]service.JobSpec, s.jobs)
	keys := make([]string, s.jobs)
	ids := make([]string, s.jobs)
	for i := range specs {
		specs[i] = s.randomSpec()
		keys[i] = fmt.Sprintf("soak-r%03d-j%d", r, i)
		st, dup, err := cli.Submit(ctx, specs[i], keys[i])
		if err != nil {
			return fmt.Errorf("submitting job %d: %w", i, err)
		}
		if dup {
			return fmt.Errorf("fresh key %s reported as duplicate", keys[i])
		}
		ids[i] = st.ID
	}

	// Planned chaos: SIGKILL mid-job, restart on the same state with a
	// fresh randomized fault schedule.
	for k := 0; k < s.kills; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sleepMs(ctx, s.rng.between(250, 900))
		d.kill()
		if d, err = s.start(exe, roundDir, boundAddr, s.chaosSchedule(), tl); err != nil {
			return fmt.Errorf("restart after kill %d: %w", k+1, err)
		}
		if err := waitHealthy(ctx, cli, d); err != nil {
			if !d.dead() {
				return fmt.Errorf("after kill %d: %w", k+1, err)
			}
			// An injected fault (e.g. a rename panic) already killed this
			// life — that is the chaos working. Hand the round a healthy
			// daemon again and keep going.
			s.unplanned++
			if d, err = s.start(exe, roundDir, boundAddr, s.benignSchedule(), tl); err != nil {
				return fmt.Errorf("restart after injected crash: %w", err)
			}
			if err := waitHealthy(ctx, cli, d); err != nil {
				return fmt.Errorf("after injected crash: %w", err)
			}
		}
	}

	// Invariant 1: every accepted job reaches a terminal state. The
	// supervisor below restarts the daemon (benignly) if an injected
	// panic kills it after the planned chaos.
	final, err := s.awaitTerminal(ctx, cli, &d, exe, roundDir, boundAddr, ids, tl)
	if err != nil {
		return err
	}
	for i, st := range final {
		if st.State != service.StateSucceeded.String() {
			return fmt.Errorf("job %s (key %s) ended %q, want succeeded", st.ID, keys[i], st.State)
		}
		if st.Result == nil {
			return fmt.Errorf("job %s succeeded without a result", st.ID)
		}
		if st.Result.Partial {
			return fmt.Errorf("job %s ended partial (%d unscanned); injected faults exceeded the retry budget", st.ID, st.Result.Unscanned)
		}
	}

	// Invariant 2: no idempotency key executed twice — a replayed submit
	// lands on the original job, and the daemon holds exactly one job
	// per key.
	for i := range keys {
		st, dup, err := cli.Submit(ctx, specs[i], keys[i])
		if err != nil {
			return fmt.Errorf("replaying key %s: %w", keys[i], err)
		}
		if !dup || st.ID != ids[i] {
			return fmt.Errorf("replayed key %s: dup=%t id=%s, want duplicate of %s", keys[i], dup, st.ID, ids[i])
		}
	}
	all, err := cli.List(ctx, "")
	if err != nil {
		return err
	}
	if len(all) != s.jobs {
		return fmt.Errorf("daemon holds %d jobs, want %d — an idempotent submit executed twice", len(all), s.jobs)
	}

	// Invariant 3: results are bit-identical to a fault-free reference.
	for i, st := range final {
		ref, err := s.reference(ctx, specs[i])
		if err != nil {
			return fmt.Errorf("reference run for job %d: %w", i, err)
		}
		if err := compareResult(st.Result, ref); err != nil {
			return fmt.Errorf("job %s diverged from the fault-free reference: %w", st.ID, err)
		}
	}

	if err := s.preAckPhase(ctx, cli, &d, exe, roundDir, boundAddr, r, tl); err != nil {
		return fmt.Errorf("pre-acknowledgement phase: %w", err)
	}

	// Invariant 4: the store converges back under its disk budget.
	if s.diskBudget > 0 {
		if err := s.awaitDiskBudget(ctx, cli, d); err != nil {
			return err
		}
	}
	return nil
}

// preAckJobs is how many submissions a pre-acknowledgement phase makes
// before its kill.
const preAckJobs = 2

// preAckPhase runs a round's pre-acknowledgement phase (see the package
// comment) on the round's daemon, whose jobs are all terminal.
func (s *soak) preAckPhase(ctx context.Context, cli *client.Client, d **daemon, exe, roundDir, addr string, r int, tl *tailBuf) error {
	// Slow fsyncs price every publish at 25 ms or more, so the wait
	// budget is at least 200 ms; slow partitions make each job outlive it.
	priced := fmt.Sprintf("harness/partition=delay(%dms);ckptstore/sync=delay(25ms)", s.rng.between(2, 6))
	(*d).kill()
	var err error
	if *d, err = s.start(exe, roundDir, addr, priced, tl); err != nil {
		return err
	}
	if err := waitHealthy(ctx, cli, *d); err != nil {
		return err
	}
	// A fresh daemon life has measured no publish: its first job
	// publishes its first step and prices the rest.
	pricing := s.randomSpec()
	st, _, err := cli.Submit(ctx, pricing, fmt.Sprintf("soak-r%03d-pricing", r))
	if err != nil {
		return fmt.Errorf("submitting the pricing job: %w", err)
	}
	if _, err := s.awaitTerminal(ctx, cli, d, exe, roundDir, addr, []string{st.ID}, tl); err != nil {
		return err
	}
	stats, err := cli.Stats(ctx)
	if err != nil {
		return err
	}
	budget := time.Duration(harness.PublishRatio * stats.Disk.CheapestPublishSec * float64(time.Second))
	if budget <= 0 {
		return fmt.Errorf("the pricing job measured no publish")
	}

	// Submit, then kill the daemon inside the wait budget, while the
	// jobs run and their POSTs are unanswered.
	specs := make([]service.JobSpec, preAckJobs)
	keys := make([]string, preAckJobs)
	ids := make([]string, preAckJobs)
	errs := make([]error, preAckJobs)
	var answered sync.WaitGroup
	var mu sync.Mutex
	unanswered := preAckJobs
	for i := range specs {
		specs[i] = s.randomSpec()
		keys[i] = fmt.Sprintf("soak-r%03d-preack%d", r, i)
		answered.Add(1)
		go func(i int) {
			defer answered.Done()
			st, _, err := cli.Submit(ctx, specs[i], keys[i])
			mu.Lock()
			defer mu.Unlock()
			if unanswered--; err == nil {
				ids[i] = st.ID
			}
			errs[i] = err
		}(i)
	}
	sleepMs(ctx, s.rng.between(10, int(budget/time.Millisecond)/2))
	(*d).kill()
	mu.Lock()
	s.preAckKills += unanswered
	mu.Unlock()
	// The next life fails its first deferred spec commit. (No panic: the
	// submitter may make that commit on its HTTP handler goroutine, whose
	// panics net/http recovers rather than crashing the process.)
	fault := []string{"error@1", "diskfull@1"}[s.rng.between(0, 1)]
	if *d, err = s.start(exe, roundDir, addr, priced+";service/deferred-spec="+fault, tl); err != nil {
		return err
	}
	answered.Wait()
	// A POST whose retries ran out was never acknowledged: submit again
	// under its key until one is, restarting a daemon the fault killed.
	for i := range specs {
		for ids[i] == "" {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("submitting %s: %v (last error %v)", keys[i], err, errs[i])
			}
			if (*d).dead() {
				s.unplanned++
				if *d, err = s.start(exe, roundDir, addr, s.benignSchedule(), tl); err != nil {
					return err
				}
			}
			if err := waitHealthy(ctx, cli, *d); err != nil {
				continue
			}
			st, _, err := cli.Submit(ctx, specs[i], keys[i])
			if err == nil {
				ids[i] = st.ID
			}
			errs[i] = err
		}
	}

	// Invariants 1-3 for the phase's jobs.
	final, err := s.awaitTerminal(ctx, cli, d, exe, roundDir, addr, ids, tl)
	if err != nil {
		return err
	}
	for i, st := range final {
		if st.State != service.StateSucceeded.String() || st.Result == nil {
			return fmt.Errorf("job %s (key %s) ended %q, want succeeded", st.ID, keys[i], st.State)
		}
		ref, err := s.reference(ctx, specs[i])
		if err != nil {
			return fmt.Errorf("reference run for %s: %w", keys[i], err)
		}
		if err := compareResult(st.Result, ref); err != nil {
			return fmt.Errorf("job %s diverged from the fault-free reference: %w", st.ID, err)
		}
		again, dup, err := cli.Submit(ctx, specs[i], keys[i])
		if err != nil {
			return fmt.Errorf("replaying key %s: %w", keys[i], err)
		}
		if !dup || again.ID != ids[i] {
			return fmt.Errorf("replayed key %s: dup=%t id=%s, want duplicate of %s", keys[i], dup, again.ID, ids[i])
		}
	}
	all, err := cli.List(ctx, "")
	if err != nil {
		return err
	}
	if want := s.jobs + 1 + preAckJobs; len(all) != want {
		return fmt.Errorf("daemon holds %d jobs, want %d — an idempotent submit executed twice", len(all), want)
	}
	return nil
}

// awaitTerminal polls every job to a terminal state, restarting the
// daemon with a benign schedule whenever an injected fault killed it.
func (s *soak) awaitTerminal(ctx context.Context, cli *client.Client, d **daemon, exe, roundDir, addr string, ids []string, tl *tailBuf) ([]*service.JobStatus, error) {
	final := make([]*service.JobStatus, len(ids))
	for {
		if (*d).dead() {
			s.unplanned++
			nd, err := s.start(exe, roundDir, addr, s.benignSchedule(), tl)
			if err != nil {
				return nil, fmt.Errorf("restarting crashed daemon: %w", err)
			}
			*d = nd
			if err := waitHealthy(ctx, cli, nd); err != nil {
				return nil, err
			}
		}
		done := true
		for i, id := range ids {
			if final[i] != nil {
				continue
			}
			st, err := cli.Get(ctx, id)
			if err != nil {
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
					return nil, fmt.Errorf("accepted job %s vanished: %w", id, err)
				}
				if ctx.Err() != nil {
					return nil, fmt.Errorf("round timed out waiting for %s: %w", id, err)
				}
				done = false
				break // daemon mid-death; the next iteration restarts it
			}
			if js, perr := service.ParseState(st.State); perr == nil && js.Terminal() {
				final[i] = st
			} else {
				done = false
			}
		}
		if done {
			return final, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("round timed out with jobs still live")
		}
		sleepMs(ctx, 100)
	}
}

// awaitDiskBudget waits for the background GC to bring the store back
// under budget.
func (s *soak) awaitDiskBudget(ctx context.Context, cli *client.Client, d *daemon) error {
	deadline := time.Now().Add(15 * time.Second)
	var last service.DiskStats
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if d.dead() {
			return fmt.Errorf("daemon died during the disk-budget check")
		}
		stats, err := cli.Stats(ctx)
		if err == nil {
			last = stats.Disk
			if last.UsageBytes <= s.diskBudget && last.Degraded == "" {
				return nil
			}
		}
		sleepMs(ctx, 200)
	}
	return fmt.Errorf("store still over budget: %d/%d bytes used, degraded=%q", last.UsageBytes, s.diskBudget, last.Degraded)
}

// randomSpec draws a small seeded cohort. Distinct seeds defeat the
// result cache so every job really runs; Workers is pinned so the
// reference uses the identical partition plan.
func (s *soak) randomSpec() service.JobSpec {
	return service.JobSpec{
		Tenant: fmt.Sprintf("tenant%d", s.rng.between(0, 2)),
		Cohort: service.CohortSpec{
			Code:  "BRCA",
			Genes: s.rng.between(36, 48),
			Hits:  2,
			Seed:  int64(s.rng.between(1, 1<<30)),
		},
		Options: service.OptionsSpec{Workers: 2},
	}
}

// benignSchedule injects only timing chaos: straggler partitions and
// slow fsyncs stretch the run so kills land mid-job, but nothing fails.
func (s *soak) benignSchedule() string {
	parts := []string{fmt.Sprintf("harness/partition=delay(%dms)", s.rng.between(2, 6))}
	if s.rng.chance(1, 2) {
		parts = append(parts, fmt.Sprintf("ckptstore/sync=delay(%dms)%%0.3:%d", s.rng.between(1, 4), s.rng.between(1, 999)))
	}
	return strings.Join(parts, ";")
}

// chaosSchedule arms the hard faults for a post-kill daemon life. Every
// fault is one the stack is contractually able to absorb:
//
//   - diskfull windows on checkpoint writes recover via the service's
//     degraded mode + ENOSPC retry (docs/RESILIENCE.md §3);
//   - rename panics kill the daemon mid-write, leaving a torn temp file
//     for the store sweep — the supervisor restarts the daemon;
//   - torn-journal panics kill the daemon halfway through writing a
//     result record, leaving half a frame that replay truncates;
//   - partition error windows stay within the harness's per-partition
//     retry budget (width 2 < 1+MaxRetries attempts), so no quarantine;
//   - delays produce stragglers and slow fsyncs.
func (s *soak) chaosSchedule() string {
	var parts []string
	if s.rng.chance(2, 3) { // straggler partitions or a failing window, one spec per point
		parts = append(parts, fmt.Sprintf("harness/partition=delay(%dms)", s.rng.between(2, 6)))
	} else {
		a := s.rng.between(3, 40)
		parts = append(parts, fmt.Sprintf("harness/partition=error@%d-%d", a, a+1))
	}
	if s.rng.chance(1, 2) { // transient disk-full window on checkpoint writes
		a := s.rng.between(2, 12)
		parts = append(parts, fmt.Sprintf("ckptstore/write=diskfull@%d-%d", a, a+s.rng.between(2, 6)))
	}
	if s.rng.chance(1, 3) { // torn temp: die between write and rename
		parts = append(parts, fmt.Sprintf("ckptstore/rename=panic@%d", s.rng.between(6, 16)))
	}
	if s.rng.chance(1, 3) { // torn journal record: die halfway through an append
		parts = append(parts, fmt.Sprintf("ckptstore/journal-torn=panic@%d", s.rng.between(1, 3)))
	}
	if s.rng.chance(1, 3) { // slow fsync
		parts = append(parts, fmt.Sprintf("ckptstore/sync=delay(%dms)%%0.3:%d", s.rng.between(1, 4), s.rng.between(1, 999)))
	}
	return strings.Join(parts, ";")
}

// reference computes (and caches) the fault-free in-process result for a
// spec. The parent never arms failpoints, so this is the clean baseline
// the chaos results must match bit for bit.
func (s *soak) reference(ctx context.Context, spec service.JobSpec) (*harness.Result, error) {
	key := fmt.Sprintf("%s/%d/%d/%d/w%d", spec.Cohort.Code, spec.Cohort.Genes, spec.Cohort.Hits, spec.Cohort.Seed, spec.Options.Workers)
	if res, ok := s.refs[key]; ok {
		return res, nil
	}
	cohort, err := spec.Cohort.Generate()
	if err != nil {
		return nil, err
	}
	opt, err := spec.Options.CoverOptions(spec.Cohort.Hits)
	if err != nil {
		return nil, err
	}
	res, err := harness.Run(ctx, cohort.Tumor, cohort.Normal, harness.Options{Cover: opt})
	if err != nil {
		return nil, err
	}
	s.refs[key] = res
	return res, nil
}

// compareResult requires the chaos-run job result to be bit-identical to
// the fault-free reference: same combos with the same F scores and cover
// deltas, same totals, same Evaluated/Pruned work counters (the
// crash-invariance property), and a completed stop cause.
func compareResult(got *service.JobResult, want *harness.Result) error {
	if got.Error != "" {
		return fmt.Errorf("job carries error %q", got.Error)
	}
	if len(got.Combos) != len(want.Steps) {
		return fmt.Errorf("%d combos, want %d", len(got.Combos), len(want.Steps))
	}
	for i, c := range got.Combos {
		ids := want.Steps[i].Combo.GeneIDs()
		if len(c.GeneIDs) != len(ids) {
			return fmt.Errorf("combo %d has %d genes, want %d", i, len(c.GeneIDs), len(ids))
		}
		for k := range ids {
			if c.GeneIDs[k] != ids[k] {
				return fmt.Errorf("combo %d gene %d = %d, want %d", i, k, c.GeneIDs[k], ids[k])
			}
		}
		// Bit-level equality, not numeric tolerance: "bit-identical" is
		// the soak's contract.
		if math.Float64bits(c.F) != math.Float64bits(want.Steps[i].Combo.F) {
			return fmt.Errorf("combo %d F = %v, want %v", i, c.F, want.Steps[i].Combo.F)
		}
		if c.NewlyCovered != want.Steps[i].NewlyCovered {
			return fmt.Errorf("combo %d NewlyCovered = %d, want %d", i, c.NewlyCovered, want.Steps[i].NewlyCovered)
		}
	}
	if got.Covered != want.Covered || got.Uncoverable != want.Uncoverable {
		return fmt.Errorf("cover %d/%d uncoverable, want %d/%d", got.Covered, got.Uncoverable, want.Covered, want.Uncoverable)
	}
	if got.Evaluated != want.Evaluated || got.Pruned != want.Pruned {
		return fmt.Errorf("work counters Evaluated=%d Pruned=%d, want %d/%d", got.Evaluated, got.Pruned, want.Evaluated, want.Pruned)
	}
	if got.Stop != harness.StopCompleted.String() {
		return fmt.Errorf("stop = %q, want completed", got.Stop)
	}
	return nil
}

// tailBuf keeps the last chunk of the round's combined daemon output in
// memory for failure reports. exec.Cmd writes to it from a pipe
// goroutine, so it locks.
type tailBuf struct {
	mu  sync.Mutex
	buf []byte
}

const tailKeep = 64 << 10

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - tailKeep; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

// tail returns the last n lines.
func (t *tailBuf) tail(n int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	lines := strings.Split(strings.TrimRight(string(t.buf), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// lineCounter counts the lines of a stream that contain mark. exec.Cmd
// writes to it from a pipe goroutine, so it locks.
type lineCounter struct {
	mark []byte
	mu   sync.Mutex
	line []byte // the unterminated tail of the stream
	n    int
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.line = append(c.line, p...)
	for {
		i := bytes.IndexByte(c.line, '\n')
		if i < 0 {
			break
		}
		if bytes.Contains(c.line[:i], c.mark) {
			c.n++
		}
		c.line = c.line[i+1:]
	}
	return len(p), nil
}

func (c *lineCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// daemon is one child-process life.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	// degraded and withdrawn count the life's log lines announcing a
	// disk-full degradation and a job withdrawn before acknowledgement;
	// they are complete once the life has exited.
	degraded, withdrawn *lineCounter
}

func (d *daemon) dead() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

// killLives kills every daemon life the round started, tallies their
// degradations, and forgets them.
func (s *soak) killLives() {
	for _, d := range s.lives {
		d.kill()
		s.degradations += d.degraded.count()
		s.withdrawals += d.withdrawn.count()
	}
	s.lives = nil
}

// kill SIGKILLs the child and reaps it. Idempotent.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// start launches one daemon life on the round's data directory with the
// given failpoint schedule, appending its output to the round's tail
// buffer.
func (s *soak) start(exe, roundDir, addr, schedule string, log *tailBuf) (*daemon, error) {
	fmt.Fprintf(log, "--- life %d: %s failpoints=%q\n", s.started+1, addr, schedule)
	cmd := exec.Command(exe, "-serve",
		"-addr", addr,
		"-addr-file", filepath.Join(roundDir, "addr"),
		"-data-dir", filepath.Join(roundDir, "data"),
		"-disk-budget", fmt.Sprint(s.diskBudget))
	env := os.Environ()
	kept := env[:0]
	for _, kv := range env {
		if !strings.HasPrefix(kv, failpoint.EnvVar+"=") {
			kept = append(kept, kv)
		}
	}
	cmd.Env = append(kept, failpoint.EnvVar+"="+schedule)
	d := &daemon{
		cmd:       cmd,
		exited:    make(chan struct{}),
		degraded:  &lineCounter{mark: []byte("DEGRADED: disk full")},
		withdrawn: &lineCounter{mark: []byte("withdrawn before acknowledgement")},
	}
	out := io.MultiWriter(log, d.degraded, d.withdrawn)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	s.started++
	s.lives = append(s.lives, d)
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitAddr polls the child's address file.
func waitAddr(path string, d *daemon, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := readSmall(path, 256); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		if d.dead() {
			return "", fmt.Errorf("daemon exited before publishing its address")
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("daemon never published its address")
}

// readSmall reads a file that is known to be tiny, bounding the read.
func readSmall(path string, limit int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(io.LimitReader(f, limit))
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(ctx context.Context, cli *client.Client, d *daemon) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if cli.Healthy(ctx) {
			return nil
		}
		if d.dead() {
			return fmt.Errorf("daemon died before becoming healthy")
		}
		sleepMs(ctx, 50)
	}
	return fmt.Errorf("daemon never became healthy")
}

func sleepMs(ctx context.Context, ms int) {
	select {
	case <-time.After(time.Duration(ms) * time.Millisecond):
	case <-ctx.Done():
	}
}
