package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/service"
)

// jobObs is one submission as the client saw it. Completion is observed
// from the SSE terminal frame followed by one GET, so every timestamp is
// resolved well below a millisecond (client.WaitTerminal would quantize
// it to its 100 ms poll).
type jobObs struct {
	idx  int // submission number within the phase, warm-up included
	spec service.JobSpec
	// due is when the submission was scheduled; sent is when the POST
	// obtained its connection (later than due when the generator ran
	// late or every connection was busy).
	due, sent time.Time
	// submitStart/submitEnd bracket the POST, getStart/done the final
	// GET. watchStart is when the event watch began and watchConn when
	// its request obtained a connection; terminal is when the SSE
	// terminal frame arrived.
	submitStart, submitEnd time.Time
	watchStart, watchConn  time.Time
	terminal, getStart     time.Time
	done                   time.Time
	cached                 bool
	refused                bool
	err                    error
	status                 *service.JobStatus
}

func (o *jobObs) ok() bool {
	return o.err == nil && o.status != nil && o.status.State == service.StateSucceeded.String()
}

func (o *jobObs) latency() time.Duration { return o.done.Sub(o.due) }

// phaseResult is one load phase against one daemon: a warm-up, whose
// jobs are checked but not measured, then the measured window.
type phaseResult struct {
	start, end   time.Time // measured window start; end is its last completion
	warm, jobs   []*jobObs
	peakInflight int
	cpuSeconds   float64 // daemon utime+stime over the measured window
	peakRSSMB    float64 // daemon VmHWM at the end of the phase
	stealFrac    float64 // share of the host's CPU time stolen by the hypervisor
}

// newClient builds the load generator's client: at most conns concurrent
// connections to the daemon, and no retries, so a refused submission
// shows as refused instead of being hidden behind backoff.
func newClient(url string, conns int) (*client.Client, error) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return client.New(client.Config{
		BaseURL:    url,
		HTTPClient: &http.Client{Transport: tr},
		Timeout:    60 * time.Second,
		MaxRetries: -1,
	})
}

// observe submits one job and follows it until its result is readable.
// With a tracer it records a span around each client call and, from the
// daemon's own timestamps, the service layers the job passed through.
func observe(ctx context.Context, cli *client.Client, o *jobObs, tr *tracer, job string) {
	root, endRoot := tr.openAt("job", 0, job, o.due)
	var watch int64
	defer func() {
		endRoot()
		traceService(tr, root, watch, job, o)
	}()
	sctx, submitConn := connTrace(ctx)
	o.submitStart = time.Now()
	st, _, err := cli.Submit(sctx, o.spec, "")
	o.submitEnd = time.Now()
	tr.add("client.submit", root, job, o.submitStart, o.submitEnd)
	o.sent = submitConn(o.submitStart)
	if err != nil {
		o.refused, o.err = true, err
		return
	}
	if isTerminal(st.State) {
		// Answered at submission: a result-cache hit.
		o.terminal, o.done, o.status = o.submitEnd, o.submitEnd, st
		o.cached = st.Result != nil && st.Result.CachedFrom != ""
		return
	}
	watch, endWatch := tr.open("client.watch", root, job)
	wctx, watchConn := connTrace(ctx)
	o.watchStart = time.Now()
	stream := cli.Watch(st.ID)
	defer stream.Close()
	for {
		e, err := stream.Next(wctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			o.err = fmt.Errorf("watching %s: %w", st.ID, err)
			return
		}
		if e.Type == "state" && isTerminal(e.State) && o.terminal.IsZero() {
			o.terminal = time.Now()
		}
	}
	endWatch()
	o.watchConn = watchConn(o.watchStart)
	if o.terminal.IsZero() {
		o.err = fmt.Errorf("event stream for %s ended without a terminal state", st.ID)
		return
	}
	o.getStart = time.Now()
	st, err = cli.Get(ctx, st.ID)
	o.done = time.Now()
	tr.add("client.get", root, job, o.getStart, o.done)
	if err != nil {
		o.err = err
		return
	}
	o.status = st
}

// connTrace returns a context that records when its request first
// obtains a connection, and a function reading that time (or fallback
// if none was obtained). With at most nproc connections, a request can
// wait in the client's pool for one.
func connTrace(ctx context.Context) (context.Context, func(fallback time.Time) time.Time) {
	var got atomic.Int64
	tctx := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { got.CompareAndSwap(0, time.Now().UnixNano()) },
	})
	return tctx, func(fallback time.Time) time.Time {
		if ns := got.Load(); ns != 0 {
			return time.Unix(0, ns)
		}
		return fallback
	}
}

// notifyStart is where the daemon's terminal notification starts to
// count: when the job ended, or when the watch got its connection if
// that was later — before then the frame waited in the load generator's
// connection pool, not in the daemon.
func (o *jobObs) notifyStart() time.Time {
	if o.watchConn.After(o.status.EndedAt) {
		return o.watchConn
	}
	return o.status.EndedAt
}

// traceService adds the spans of one finished job that the client
// calls do not show: the generator's lateness and its wait for a
// connection to watch on, and — under the client's event watch — queue
// wait, the daemon's run (with the harness's own elapsed time inside
// it) and the terminal notification. Daemon timestamps share the host's
// wall clock.
func traceService(tr *tracer, root, watch int64, job string, o *jobObs) {
	if tr == nil || o.err != nil || o.status == nil {
		return
	}
	tr.add("loadgen.late", root, job, o.due, o.sent)
	st := o.status
	if o.cached || st.StartedAt.IsZero() {
		return
	}
	tr.add("loadgen.watch_wait", watch, job, o.watchStart, o.watchConn)
	tr.add("service.queue_wait", watch, job, st.SubmittedAt, st.StartedAt)
	run := tr.add("service.run", watch, job, st.StartedAt, st.EndedAt)
	if st.Result != nil {
		elapsed := time.Duration(st.Result.ElapsedSec * float64(time.Second))
		tr.add("harness.elapsed", run, job, st.EndedAt.Add(-elapsed), st.EndedAt)
	}
	tr.add("service.notify", watch, job, o.notifyStart(), o.terminal)
}

func isTerminal(state string) bool {
	s, err := service.ParseState(state)
	return err == nil && s.Terminal()
}

// driveClosed is one client sending the next job only after the previous
// result is readable: warm untraced, unmeasured jobs, then measured ones.
// mark is called as the measured window opens. Every job is attempted;
// once ctx has expired each remaining one fails at once.
func driveClosed(ctx context.Context, cli *client.Client, w workload, seed int64, warm, measured int, tr *tracer, mark func()) *phaseResult {
	r := newRNG(seed)
	res := &phaseResult{peakInflight: 1}
	for i := 0; i < warm+measured; i++ {
		if i == warm {
			mark()
			res.start = time.Now()
		}
		o := &jobObs{idx: i, spec: w.spec(r, i), due: time.Now()}
		if i < warm {
			observe(ctx, cli, o, nil, "")
			res.warm = append(res.warm, o)
			continue
		}
		observe(ctx, cli, o, tr, fmt.Sprintf("job-%d", i))
		res.jobs = append(res.jobs, o)
	}
	res.end = lastDone(res)
	return res
}

// driveOpen sends each planned arrival when it is due, whether or not
// earlier jobs have finished, then waits for every job in flight.
// Arrivals in the first warmup are untraced and unmeasured; mark is
// called as the first measured one is sent. One goroutine per arrival:
// the plan is finite and fixed by the seed.
func driveOpen(ctx context.Context, cli *client.Client, plan []arrival, warmup time.Duration, tr *tracer, mark func()) *phaseResult {
	begin := time.Now()
	res := &phaseResult{start: begin.Add(warmup)}
	marked := false
	var wg sync.WaitGroup
	var inflight, peak atomic.Int64
	for i, a := range plan {
		due := begin.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		o := &jobObs{idx: i, spec: a.spec, due: due}
		otr, name := tr, fmt.Sprintf("job-%d", i)
		if a.at < warmup {
			res.warm = append(res.warm, o)
			otr = nil
		} else {
			if !marked {
				mark()
				marked = true
			}
			res.jobs = append(res.jobs, o)
		}
		if ctx.Err() != nil {
			o.err = ctx.Err()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			observe(ctx, cli, o, otr, name)
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	res.peakInflight = int(peak.Load())
	res.end = lastDone(res)
	return res
}

// all returns the warm-up and the measured jobs.
func (ph *phaseResult) all() []*jobObs {
	return append(append([]*jobObs(nil), ph.warm...), ph.jobs...)
}

func lastDone(res *phaseResult) time.Time {
	end := res.start
	for _, o := range res.jobs {
		if o.ok() && o.done.After(end) {
			end = o.done
		}
	}
	return end
}

// runPhase starts a fresh daemon, drives the workload against it, and
// records the daemon's CPU time and peak RSS before stopping it.
func runPhase(ctx context.Context, cfg *config, w workload, dir string, tr *tracer) (*phaseResult, error) {
	// Write back what earlier builds, runs and phases left dirty, so
	// their writeback does not land in this phase's fsyncs.
	syscall.Sync()
	d, err := startDaemon(ctx, cfg.daemon, dir, cfg.nproc)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	cli, err := newClient(d.url, cfg.nproc)
	if err != nil {
		return nil, err
	}
	var cpu0 float64
	var cpuErr error
	var steal0, total0 uint64
	mark := func() {
		cpu0, cpuErr = d.cpuSeconds()
		steal0, total0 = hostSteal()
	}
	// The phase gets a generous ceiling of its own so a wedged daemon
	// fails the run instead of hanging it.
	pctx, cancel := context.WithTimeout(ctx, cfg.warmup+cfg.seconds+90*time.Second)
	defer cancel()
	var res *phaseResult
	if w.openLoop {
		res = driveOpen(pctx, cli, w.plan(cfg.seed, cfg.warmup, cfg.seconds), cfg.warmup, tr, mark)
	} else {
		res = driveClosed(pctx, cli, w, cfg.seed, w.count(cfg.warmup), max(w.count(cfg.seconds), 1), tr, mark)
	}
	if cpuErr != nil {
		return nil, cpuErr
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.cpuSeconds = cpu1 - cpu0
	if steal1, total1 := hostSteal(); total1 > total0 {
		res.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	if res.peakRSSMB, err = d.procStatusMB("VmHWM"); err != nil {
		return nil, err
	}
	return res, nil
}
