// Command multihitd is the multi-tenant discovery daemon: it serves the
// internal/service HTTP/JSON API over the durable supervised runner.
// Jobs are queued with per-tenant fair share and priority classes,
// admitted against a simulated GPU cluster, checkpointed per job, and
// resumed automatically when a killed daemon restarts. docs/SERVICE.md
// documents the API; `make serve-smoke` exercises the kill/restart path
// end to end.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/failpoint"
	"repro/internal/gpusim"
	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8723", "listen address (host:port; :0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
	dataDir := flag.String("data-dir", "", "durable state directory (job specs, results, checkpoints); required")
	gpus := flag.Int("gpus", service.DefaultClusterGPUs, "simulated cluster capacity in devices for admission control")
	cacheEntries := flag.Int("cache-entries", service.DefaultCacheEntries, "result cache capacity (negative disables)")
	maxQueued := flag.Int("max-queued", service.DefaultMaxQueued, "queue depth limit across tenants")
	workers := flag.Int("workers", 0, "per-job engine worker count (0 = GOMAXPROCS); pinned into each submission")
	retain := flag.Int("retain", ckptstore.DefaultRetain, "checkpoint generations retained per job")
	shedBatchAt := flag.Int("shed-batch-at", 0, "queue depth at which batch-class jobs are shed with 503 (0 = 3/4 of -max-queued, negative disables)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant submissions per second (0 disables rate limiting)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant submission burst on top of -tenant-rate")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive backend failures that trip the circuit breaker (0 = default, negative disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "circuit breaker open -> half-open delay (0 = default)")
	diskBudget := flag.Int64("disk-budget", 0, "data-dir byte budget; over it the GC reclaims checkpoints and admission degrades (0 disables)")
	diskPoll := flag.Duration("disk-poll", 0, "disk accountant cadence and ENOSPC retry interval (0 = default)")
	chaos := flag.String("chaos", "", "failpoint specs to arm, e.g. 'harness/partition=error@2'")
	flag.Parse()

	logger := log.New(os.Stderr, "multihitd: ", log.LstdFlags|log.Lmsgprefix)
	if *dataDir == "" {
		logger.Print("-data-dir is required")
		os.Exit(service.ExitFailure)
	}
	if *chaos != "" {
		if _, err := failpoint.EnableSpecs(*chaos); err != nil {
			logger.Printf("arming failpoints: %v", err)
			os.Exit(service.ExitFailure)
		}
	}
	if n, err := failpoint.FromEnv(); err != nil {
		logger.Printf("arming %s: %v", failpoint.EnvVar, err)
		os.Exit(service.ExitFailure)
	} else if n > 0 {
		logger.Printf("armed %d failpoint(s) from %s", n, failpoint.EnvVar)
	}

	svc, err := service.Open(service.Config{
		DataDir:      *dataDir,
		Device:       gpusim.V100(),
		ClusterGPUs:  *gpus,
		MaxQueued:    *maxQueued,
		CacheEntries: *cacheEntries,
		JobWorkers:   *workers,
		Retain:       *retain,

		ShedBatchAt:      *shedBatchAt,
		TenantRatePerSec: *tenantRate,
		TenantBurst:      *tenantBurst,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		DiskBudgetBytes:  *diskBudget,
		DiskPoll:         *diskPoll,

		Logf: logger.Printf,
	})
	if err != nil {
		logger.Printf("open: %v", err)
		os.Exit(service.ExitFailure)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		os.Exit(service.ExitFailure)
	}
	if *addrFile != "" {
		if err := ckptstore.WriteFileAtomic(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Printf("writing -addr-file: %v", err)
			os.Exit(service.ExitFailure)
		}
	}
	logger.Printf("serving on http://%s (data %s, %d simulated GPUs)", ln.Addr(), *dataDir, *gpus)

	srv := &http.Server{Handler: svc.Handler()}
	ctx, stop := harness.SignalContext(context.Background())
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		// SIGINT/SIGTERM: stop accepting, park every running job at its
		// newest checkpoint, then exit with the early-stop code so
		// supervisors know a restart resumes the work.
		logger.Print("signal received, draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		_ = svc.Close()
		logger.Print("drained; in-flight jobs parked for resume")
		os.Exit(service.ExitEarlyStop)
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			_ = svc.Close()
			os.Exit(service.ExitFailure)
		}
	}
}
