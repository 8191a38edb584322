// Command ccfit-serve is the long-running campaign service: it accepts
// campaign submissions (the same experiment/sweep specs ccfit-run
// consumes) over HTTP+JSON, expands them into jobs, and schedules them
// across a worker pool with the content-addressed result cache as the
// shared dedup layer. A campaign on disk is its spec file plus, once
// cancelled, a cancel mark under data/campaigns; the cache under
// data/cache holds every finished cell — results and quarantined
// outcomes — so a campaign resumes after a crash or restart, and
// overlapping or resubmitted campaigns skip every already-computed cell
// for free. Transient failures are not stored: they rerun after a
// restart. Journals an older build wrote under data/journal are not read;
// resubmitting such a campaign costs only cache hits.
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
// -workers N also caps the jobs in flight on the remote fleet: each of
// the scheduler's N goroutines blocks in Board.Enqueue until its remote
// result returns, so a fleet with more slots than N sits partly idle.
// On the datacenter workload's command line with two `ccfit-worker
// -jobs 1` (a shared 2-vCPU host), -workers 1 took 2.75-3.17 s against
// 1.72-1.98 s at -workers 2. Give the service at least as many workers
// as the fleet has slots. The real fix, one queue that local and remote
// workers claim from alike, waits on the benchmark's service probe;
// DESIGN §10 says why.
//
// On SIGINT/SIGTERM the server drains gracefully: in-flight jobs
// finish and are cached, and queued jobs resume in the next process.
// The cache needs no flush: an entry's mtime is its last access, which
// orders -cache-max-bytes eviction.
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
	dataDir := flag.String("data", ".ccfit-serve", "state directory (campaign specs under data/campaigns, cache under data/cache)")
	// The execution flags are the campaign tools' own, declared once in
	// internal/cli; the cache defaults to <data>/cache here.
	f := cli.Defaults()
	f.Register(flag.CommandLine, "cache", "workers", "timeout", "cache-max-bytes")
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
	f.SettleCache(cache, logf)

	board := dispatch.NewBoard(dispatch.Options{
		LeaseTTL:    *leaseTTL,
		MaxReassign: *maxReassign,
		Log:         logf,
	})
	sched, err := campaign.Open(campaign.Options{
		Dir:      filepath.Join(*dataDir, "campaigns"),
		Cache:    cache,
		Workers:  f.Workers,
		Timeout:  f.Timeout,
		Dispatch: board,
		Log:      logf,
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
	srv := newServer(campaign.NewServer(sched), baseCtx)
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
					f.SettleCache(cache, logf)
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
	f.SettleCache(cache, logf)
	fmt.Fprintln(os.Stderr, "ccfit-serve: drained")
}

// newServer bounds what a client may hold open without sending: the
// request header, and an idle keep-alive connection. It sets no
// ReadTimeout and no WriteTimeout, because both would cut requests that
// are meant to last: net/http leaves ReadTimeout's deadline armed while
// the handler runs, and when it fires the background read cancels the
// request context — that ends a parked worker claim (held up to 20 s)
// and every event stream; WriteTimeout would cut the same two.
func newServer(h http.Handler, base context.Context) *http.Server {
	return &http.Server{
		Handler:           h,
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccfit-serve:", err)
	os.Exit(1)
}
