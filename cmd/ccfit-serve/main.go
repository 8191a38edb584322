// Command ccfit-serve is the long-running campaign service: it accepts
// campaign submissions (the same experiment/sweep specs ccfit-run
// consumes) over HTTP+JSON, expands them into jobs, and schedules them
// across a worker pool with the content-addressed result cache as the
// shared dedup layer. Campaigns are journaled to disk and resume after
// a crash or restart; overlapping or resubmitted campaigns skip every
// already-computed cell for free.
//
// Usage:
//
//	ccfit-serve                              # 127.0.0.1:8080, state in .ccfit-serve/
//	ccfit-serve -addr :9000 -workers 8 -cache-max-bytes 1073741824
//	ccfit-run -server http://127.0.0.1:8080 fig7a   # submit remotely
//
// API: POST /campaigns, GET /campaigns[/{id}[/results|/events]],
// DELETE /campaigns/{id}, GET /metrics, GET /healthz. Remote workers
// (ccfit-worker) attach through POST /dispatch/* under lease-based
// claims (-lease-ttl, -max-reassign); the connected fleet is visible
// at GET /workers, and with no workers attached jobs simply run in the
// local pool.
//
// On SIGINT/SIGTERM the server drains gracefully: in-flight jobs
// finish and are journaled, queued jobs stay journaled for the next
// process, and the cache's access-time index is flushed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/dispatch"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	dataDir := flag.String("data", ".ccfit-serve", "state directory (journals under data/journal, cache under data/cache)")
	// The execution flags are the campaign tools' own, declared once in
	// internal/cli; the cache defaults to <data>/cache here.
	f := cli.Defaults()
	f.Register(flag.CommandLine, "cache", "workers", "timeout", "retries", "retry-backoff", "cache-max-bytes")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for open HTTP connections")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "remote worker lease TTL (a job whose worker stops heartbeating this long is reclaimed and requeued)")
	maxReassign := flag.Int("max-reassign", 3, "give up on a job after this many lease reclaims (bounds crash-requeue loops)")
	flag.Parse()

	if f.Cache == "" {
		f.Cache = filepath.Join(*dataDir, "cache")
	}
	cache, err := f.OpenCache()
	if err != nil {
		fatal(err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ccfit-serve: "+format+"\n", args...)
	}
	// Bounds the cache at startup, periodically and at shutdown.
	gc := func() {
		if f.CacheMaxBytes > 0 {
			f.SettleCache(cache, logf)
		}
	}
	gc()

	board := dispatch.NewBoard(dispatch.Options{
		LeaseTTL:    *leaseTTL,
		MaxReassign: *maxReassign,
		Log:         logf,
	})
	sched, err := campaign.Open(campaign.Options{
		Dir:          filepath.Join(*dataDir, "journal"),
		Cache:        cache,
		Workers:      f.Workers,
		Timeout:      f.Timeout,
		Retries:      f.Retries,
		RetryBackoff: f.RetryBackoff,
		Dispatch:     board,
		Log:          logf,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Event streams hold their connections open indefinitely; deriving
	// every request context from baseCtx lets shutdown cut them loose so
	// Shutdown is not stuck behind a subscriber for the drain timeout.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	srv := &http.Server{
		Handler:     campaign.NewServer(sched),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	// The line below is the startup handshake scripts parse; keep its
	// shape stable.
	fmt.Printf("ccfit-serve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Periodic GC so a busy server bounds its cache between restarts.
	if f.CacheMaxBytes > 0 {
		go func() {
			t := time.NewTicker(5 * time.Minute)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					gc()
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process immediately
	fmt.Fprintln(os.Stderr, "ccfit-serve: draining (in-flight jobs finish; queued jobs resume next start)")

	baseCancel() // release long-lived event streams
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "ccfit-serve: http shutdown: %v\n", err)
	}
	if err := sched.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ccfit-serve: scheduler close: %v\n", err)
	}
	// After the scheduler: in-flight remote jobs have delivered (or been
	// withdrawn) by now, so closing the board strands nothing.
	board.Close()
	gc()
	fmt.Fprintln(os.Stderr, "ccfit-serve: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccfit-serve:", err)
	os.Exit(1)
}
