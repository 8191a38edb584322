// Command ccfit-worker is the remote execution agent for ccfit-serve:
// it registers with a running service, pulls simulation jobs under
// lease-based claims, executes them with the full local-runner
// semantics (its own result cache, timeout, panic containment, retries,
// quarantine) and reports content-addressed results back, heartbeating
// while it works so the service knows the job is alive.
//
// Usage:
//
//	ccfit-worker -server http://127.0.0.1:8080
//	ccfit-worker -server http://build-host:9000 -name rack7 -jobs 4
//
// Fault tolerance is the service's job: if this process is killed, its
// heartbeats stop, the lease expires and the service requeues the job
// on another worker (or runs it locally). On SIGINT/SIGTERM the worker
// drains gracefully instead — in-flight jobs are reported abandoned so
// the service requeues them immediately rather than waiting out the
// lease TTL.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/dispatch"
	"repro/internal/runner"
)

func main() {
	name := flag.String("name", hostname(), "worker label shown in the service's /workers and journal")
	jobs := flag.Int("jobs", 1, "jobs to run concurrently (each may itself use -sim-workers from the spec)")
	pollMax := flag.Duration("poll-max", 2*time.Second, "backoff cap after a failed or refused request (idle claims park on the service; they do not poll)")
	// The execution flags are the campaign tools' own, declared once in
	// internal/cli; a worker defaults to a local service and a
	// worker-local cache ('' disables it).
	f := cli.Defaults()
	f.Server, f.Cache = "http://127.0.0.1:8080", ".ccfit-worker-cache"
	f.Register(flag.CommandLine, "server", "cache", "timeout", "retries", "retry-backoff")
	flag.Parse()

	cache, err := f.OpenCache()
	if err != nil {
		fatal(err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ccfit-worker: "+format+"\n", args...)
	}

	w := &dispatch.Worker{
		Client: &dispatch.Client{Base: f.Server},
		Opt: dispatch.WorkerOptions{
			Name:  *name,
			Slots: *jobs,
			Exec: &runner.LocalExecutor{
				Cache:        cache,
				Timeout:      f.Timeout,
				Retries:      f.Retries,
				RetryBackoff: f.RetryBackoff,
			},
			PollMax: *pollMax,
			Log:     logf,
		},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The line below is the startup handshake scripts parse; keep its
	// shape stable.
	fmt.Printf("ccfit-worker: %s polling %s (%d slot(s), GOMAXPROCS=%d)\n",
		*name, f.Server, max(*jobs, 1), runtime.GOMAXPROCS(0))

	err = w.Run(ctx)
	stop() // a second signal now kills the process immediately
	if cache != nil {
		f.SettleCache(cache, logf)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "ccfit-worker: drained")
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return "worker"
	}
	return h
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccfit-worker:", err)
	os.Exit(1)
}
