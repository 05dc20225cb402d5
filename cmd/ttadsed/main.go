// Command ttadsed is the exploration daemon: design and test space
// explorations are submitted as jobs over HTTP/JSON, progress is
// streamed live, partial Pareto fronts and final reports are fetchable
// mid-run, and jobs can be cancelled. One process-wide annotation cache
// is shared across jobs, so concurrent explorations warm each other.
//
// Usage:
//
//	ttadsed [-addr :8080] [-max-jobs 2] [-queue 8]
//	        [-cache anno.cache] [-checkpoint-dir /var/lib/ttadsed]
//
// Quick start:
//
//	ttadsed -addr :8080 &
//	curl -s -X POST localhost:8080/v1/jobs -d '{"workload":"crypt"}'
//	curl -Ns localhost:8080/v1/jobs/job-1/events   # live NDJSON stream
//	curl -s localhost:8080/v1/jobs/job-1/front     # partial fronts
//	curl -s localhost:8080/v1/jobs/job-1/result    # 202 mid-run, 200 done
//
// On SIGTERM or SIGINT the daemon drains: intake stops (503), running
// jobs are interrupted and checkpoint their finished prefix (with
// -checkpoint-dir), the warm annotation cache is flushed (with -cache),
// and the process exits. A restarted daemon given the same flags
// resumes resubmitted specs from their checkpoints.
//
// Checkpoint and cache files are CRC-framed and written atomically; a
// file torn by a kill resumes from its intact prefix, an irrecoverably
// corrupt one is quarantined to *.corrupt. Every incident is countable
// under durability.* in GET /v1/metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ttadsed: ")
	addr := flag.String("addr", ":8080", "listen address")
	maxJobs := flag.Int("max-jobs", 2, "explorations running concurrently")
	queue := flag.Int("queue", 8, "jobs waiting beyond the running ones before 429")
	cache := flag.String("cache", "", "warm annotation cache file (loaded at startup, saved on drain)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for per-spec checkpoint files (enables drain/resume)")
	drainWait := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	flag.Parse()

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	srv := service.NewServer(service.Options{
		MaxConcurrent: *maxJobs,
		QueueDepth:    *queue,
		CachePath:     *cache,
		CheckpointDir: *ckptDir,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	errs := make(chan error, 1)
	go func() { errs <- hs.ListenAndServe() }()
	log.Printf("listening on %s (max %d jobs, queue %d)", *addr, *maxJobs, *queue)

	select {
	case sig := <-stop:
		log.Printf("%v: draining", sig)
	case err := <-errs:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	log.Print("drained")
}
