package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/service"
)

// perLayerNames are the per-layer metrics of BENCHMARK.json, in the
// order the traced run prints them; LAYERS.md says which end-to-end
// metric each should move, on which workload.
var perLayerNames = []string{
	"bitmat.andpop_ns", "bitmat.andpop_ops", "bitmat.andpop_bytes",
	"sparsemat.intersect_ns", "sparsemat.intersect_bytes",
	"kernelize.reduce_s", "kernelize.genes_kept_frac",
	"cover.run_s", "cover.pass_s", "cover.scanned_per_s", "cover.evaluated", "cover.sparse_frac",
	"harness.run_s", "harness.partitions", "harness.evaluated", "harness.pruned", "harness.prune_ratio", "harness.retries",
	"ckptstore.saves", "ckptstore.save_s", "ckptstore.save_share",
	"dataset.generate_s",
	"service.submit_s", "service.cache_hit_ratio",
	"service.queue_wait_s", "service.run_s", "service.wrap_s", "service.notify_s",
	"client.submit_s", "client.refused",
	"loadgen.late_p99_s", "loadgen.watch_wait_p99_s", "loadgen.peak_inflight",
	"residual_s", "trace.overhead_s",
}

// layerMetrics replays the layers below the daemon for the first
// w.layerSpecs completed specs, runs the kernel microbenchmarks on the
// first spec's scanned matrices, times in-process submissions, and
// combines them with the traced phase's spans.
func layerMetrics(ctx context.Context, cfg *config, w workload, untraced, traced *phaseResult, tr *tracer,
	refs map[string]*refRun, order []string, runDir string) ([]metric, error) {
	k := min(w.layerSpecs, len(order))
	if k == 0 {
		return nil, errors.New("no completed job to replay through the layers")
	}
	var layers []*layerRun
	var specs []service.JobSpec
	for i := 0; i < k; i++ {
		rr := refs[order[i]]
		lr, err := replayLayers(rr, tr, fmt.Sprintf("layers-%d", i))
		if err != nil {
			return nil, fmt.Errorf("replaying layers: %w", err)
		}
		layers = append(layers, lr)
		specs = append(specs, rr.spec)
	}

	budget := 300 * time.Millisecond
	if cfg.tiny {
		budget = 20 * time.Millisecond
	}
	m := layers[0].tumor
	andNs := andPopNs(m, tr, budget)
	isNs, isBytes := intersectNs(m, tr, budget)
	subs, err := serviceSubmits(ctx, specs, cfg.nproc, filepath.Join(runDir, "svc"), tr)
	if err != nil {
		return nil, fmt.Errorf("in-process submissions: %w", err)
	}

	// Reference runs: every distinct completed spec.
	var gen, saves []float64
	var saveSum, runSum time.Duration
	var nsaves, retries int
	for _, key := range order {
		rr := refs[key]
		gen = append(gen, rr.generate.Seconds())
		for _, s := range rr.saves {
			saves = append(saves, s.Seconds())
			saveSum += s
		}
		nsaves += len(rr.saves)
		runSum += rr.run
		retries += rr.retries
	}

	// Layer replays: harness.Run beside cover.Run on the same specs.
	var hRun, cRun, reduceS, kept, sparse, parts, hEval, hPruned, cEval []float64
	var hScanned, hPrunedSum, hEvalSum, cScanned, cEvalSum, cPasses uint64
	var cRunSum time.Duration
	for _, lr := range layers {
		rr := lr.harness
		hRun = append(hRun, rr.run.Seconds())
		parts = append(parts, float64(rr.partitions))
		hEval = append(hEval, float64(rr.res.Evaluated))
		hPruned = append(hPruned, float64(rr.res.Pruned))
		hScanned += rr.res.Evaluated + rr.res.Pruned
		hPrunedSum += rr.res.Pruned
		hEvalSum += rr.res.Evaluated
		cRun = append(cRun, lr.coverRun.Seconds())
		cRunSum += lr.coverRun
		cEval = append(cEval, float64(lr.coverRes.Evaluated))
		cScanned += lr.coverRes.Evaluated + lr.coverRes.Pruned
		cEvalSum += lr.coverRes.Evaluated
		cPasses += lr.coverPasses
		reduceS = append(reduceS, lr.reduce.Seconds())
		kept = append(kept, lr.keptFrac)
		sparse = append(sparse, b2f(lr.sparse))
	}

	// Traced phase: what the daemon and the client did per job.
	var submit, queue, run, wrap, notify, watchWait []float64
	refused, cached, ok := 0, 0, 0
	for _, o := range traced.jobs {
		if o.refused {
			refused++
		}
		if !o.ok() {
			continue
		}
		ok++
		submit = append(submit, o.submitEnd.Sub(o.submitStart).Seconds())
		if o.cached {
			cached++
			continue
		}
		st := o.status
		r := st.EndedAt.Sub(st.StartedAt).Seconds()
		queue = append(queue, st.StartedAt.Sub(st.SubmittedAt).Seconds())
		run = append(run, r)
		wrap = append(wrap, r-st.Result.ElapsedSec)
		notify = append(notify, o.terminal.Sub(o.notifyStart()).Seconds())
		watchWait = append(watchWait, o.watchConn.Sub(o.watchStart).Seconds())
	}

	words := m.Words()
	// The harness prunes against partition-local incumbents, cover.Run
	// against one shared incumbent: same enumeration, more of it scored.
	ratio := float64(hEvalSum) / float64(max(cEvalSum, 1))
	return []metric{
		{name: "bitmat.andpop_ns", value: andNs, unit: "ns", note: fmt.Sprintf("per AndWordsPop call, %d-word rows", words)},
		{name: "bitmat.andpop_ops", value: float64(2 * words), unit: "ops", note: "AND + POPCNT per word, computed"},
		{name: "bitmat.andpop_bytes", value: float64(3 * 8 * words), unit: "B", note: "two rows read + one written, computed"},
		{name: "sparsemat.intersect_ns", value: isNs, unit: "ns", note: "per IntersectCount call"},
		{name: "sparsemat.intersect_bytes", value: isBytes, unit: "B", note: "both int32 sample lists, computed"},
		{name: "kernelize.reduce_s", value: mean(reduceS), unit: "s", note: fmt.Sprintf("mean of %d specs", k)},
		{name: "kernelize.genes_kept_frac", value: mean(kept), unit: "frac"},
		{name: "cover.run_s", value: mean(cRun), unit: "s", note: fmt.Sprintf("mean of the same %d specs", k)},
		{name: "cover.pass_s", value: cRunSum.Seconds() / float64(max(cPasses, 1)), unit: "s", note: fmt.Sprintf("%d FindBest passes", cPasses)},
		{name: "cover.scanned_per_s", value: float64(cScanned) / cRunSum.Seconds(), unit: "1/s", note: "evaluated+pruned per second"},
		{name: "cover.evaluated", value: mean(cEval), unit: "count", note: "per job"},
		{name: "cover.sparse_frac", value: mean(sparse), unit: "frac", note: "share of specs auto resolves to sparse"},
		{name: "harness.run_s", value: mean(hRun), unit: "s", note: fmt.Sprintf("mean of %d specs, with checkpoints", k)},
		{name: "harness.partitions", value: mean(parts), unit: "count", note: "per job"},
		{name: "harness.evaluated", value: mean(hEval), unit: "count", note: fmt.Sprintf("per job; %.2fx cover.evaluated on the same specs", ratio)},
		{name: "harness.pruned", value: mean(hPruned), unit: "count", note: "per job"},
		{name: "harness.prune_ratio", value: float64(hPrunedSum) / float64(max(hScanned, 1)), unit: "frac"},
		{name: "harness.retries", value: float64(retries), unit: "count", note: fmt.Sprintf("over %d reference runs", len(order))},
		{name: "ckptstore.saves", value: float64(nsaves) / float64(len(order)), unit: "count", note: "per job"},
		{name: "ckptstore.save_s", value: median(saves), unit: "s", note: fmt.Sprintf("median of %d saves", len(saves))},
		{name: "ckptstore.save_share", value: saveSum.Seconds() / runSum.Seconds(), unit: "frac", note: "of harness.Run time"},
		{name: "dataset.generate_s", value: median(gen), unit: "s"},
		{name: "service.submit_s", value: median(durSeconds(subs)), unit: "s", note: "in-process Service.Submit"},
		{name: "service.cache_hit_ratio", value: float64(cached) / float64(max(ok, 1)), unit: "frac"},
		{name: "service.queue_wait_s", value: median(queue), unit: "s", note: fmt.Sprintf("n=%d", len(queue))},
		{name: "service.run_s", value: median(run), unit: "s"},
		{name: "service.wrap_s", value: median(wrap), unit: "s", note: "service.run_s - result elapsed_sec"},
		{name: "service.notify_s", value: median(notify), unit: "s", note: "daemon end (or watch connection, if later) to SSE terminal frame"},
		{name: "client.submit_s", value: median(submit), unit: "s", note: "POST round trip"},
		{name: "client.refused", value: float64(refused), unit: "count"},
		{name: "loadgen.late_p99_s", value: quantile(lateness(traced), 0.99), unit: "s"},
		{name: "loadgen.watch_wait_p99_s", value: quantile(watchWait, 0.99), unit: "s", note: "event watch waiting for a pooled connection"},
		{name: "loadgen.peak_inflight", value: float64(traced.peakInflight), unit: "count"},
		{name: "residual_s", value: median(residuals(tr)), unit: "s", note: "per job: latency no layer span covers"},
		{name: "trace.overhead_s", value: median(pairedOverhead(untraced, traced)), unit: "s", note: "traced minus untraced latency, same specs"},
	}, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// residuals is, for every traced job the daemon ran (not a cache hit),
// the part of its end-to-end latency that no layer span covers: the
// job's latency minus the union of its layer spans. Client-side and
// daemon-side spans overlap (the queue wait starts inside the POST), so
// their union is taken rather than a sum. The root "job" span and the
// "client.watch" span only group layers and are not layers themselves:
// time under the watch that neither the daemon's timestamps nor the
// connection wait explain — opening and draining the event stream, or
// daemon work outside its recorded phases — is residual.
func residuals(tr *tracer) []float64 {
	roots := map[string]span{}
	layers := map[string][]span{}
	ran := map[string]bool{}
	for _, s := range tr.spans {
		switch s.Name {
		case "job":
			roots[s.Job] = s
		case "client.watch":
		default:
			layers[s.Job] = append(layers[s.Job], s)
			ran[s.Job] = ran[s.Job] || s.Name == "service.run"
		}
	}
	var out []float64
	for job, root := range roots {
		if ran[job] {
			out = append(out, (root.dur() - covered(root, layers[job])).Seconds())
		}
	}
	return out
}

// pairedOverhead compares the traced and untraced phases job by job:
// both send the same spec sequence, so equal submission numbers are the
// same work.
func pairedOverhead(untraced, traced *phaseResult) []float64 {
	base := map[int]*jobObs{}
	for _, o := range untraced.jobs {
		base[o.idx] = o
	}
	var out []float64
	for _, t := range traced.jobs {
		u := base[t.idx]
		if u != nil && u.ok() && t.ok() && !u.cached && !t.cached {
			out = append(out, t.latency().Seconds()-u.latency().Seconds())
		}
	}
	return out
}
