// Command ccfit-serve is the long-running campaign service: it accepts
// campaign submissions (the same experiment/sweep specs ccfit-run
// consumes) over HTTP+JSON and expands them into jobs on one queue that
// its in-process slots and remote workers claim from, with the
// content-addressed result cache as the shared dedup layer. A campaign
// on disk is its spec file plus, once cancelled, a cancel mark under
// data/campaigns; the cache under data/cache holds every finished cell
// — results and quarantined outcomes — so a campaign resumes after a
// crash or restart, and overlapping or resubmitted campaigns skip every
// already-computed cell for free. Transient failures are not stored:
// they rerun after a restart. Journals an older build wrote under
// data/journal are not read; resubmitting such a campaign costs only
// cache hits.
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
// claims (-lease-ttl); the connected fleet is visible
// at GET /workers. The -workers in-process slots take jobs only while
// no worker is live, so with none attached jobs simply run in-process.
//
// On SIGINT/SIGTERM the server drains gracefully: in-flight jobs —
// remote ones too, while the server still takes their results — finish
// and are cached, and queued jobs resume in the next process.
// The cache needs no flush: an entry's mtime is its last access, which
// orders -cache-max-bytes eviction.
package main

import (
	"context"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // once draining, a second signal kills the process
	if err := run(ctx, nil, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ccfit-serve:", err)
		os.Exit(1)
	}
}

// run serves until ctx ends or the listener fails, then drains and
// returns the listener's error, if any. It listens on -addr unless ln
// is non-nil.
func run(ctx context.Context, ln net.Listener, args []string) error {
	fs := flag.NewFlagSet("ccfit-serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	dataDir := fs.String("data", ".ccfit-serve", "state directory (campaign specs under data/campaigns, cache under data/cache)")
	// The execution flags are the campaign tools' own, declared once in
	// internal/cli; the cache defaults to <data>/cache here.
	f := cli.Defaults()
	f.Register(fs, "cache", "workers", "timeout", "cache-max-bytes")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for open HTTP connections")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "remote worker lease TTL (a job whose worker stops heartbeating this long is reclaimed and requeued)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if f.Cache == "" {
		f.Cache = filepath.Join(*dataDir, "cache")
	}
	cache, err := f.OpenCache()
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ccfit-serve: "+format+"\n", args...)
	}
	// Bounds the cache at startup, periodically and at shutdown.
	f.SettleCache(cache, logf)

	board := dispatch.NewBoard(dispatch.Options{LeaseTTL: *leaseTTL, Log: logf})
	sched, err := campaign.Open(campaign.Options{
		Dir:      filepath.Join(*dataDir, "campaigns"),
		Cache:    cache,
		Workers:  f.Workers,
		Timeout:  f.Timeout,
		Dispatch: board,
		Log:      logf,
	})
	if err != nil {
		board.Close()
		return err
	}

	if ln == nil {
		if ln, err = net.Listen("tcp", *addr); err != nil {
			_ = sched.Close()
			board.Close()
			return err
		}
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

	// Periodic GC so a busy server bounds its cache between restarts; it
	// ends when the drain begins.
	ctx, cancel := context.WithCancel(ctx)
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

	var served error
	select {
	case served = <-serveErr:
	case <-ctx.Done():
	}
	cancel()
	fmt.Fprintln(os.Stderr, "ccfit-serve: draining (in-flight jobs finish; queued jobs resume next start)")

	baseCancel() // release long-lived event streams and parked claims
	// The scheduler drains while HTTP still serves, so a worker's
	// in-flight job can deliver; the board closes after it, with no
	// lease left to hand back.
	if err := sched.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ccfit-serve: scheduler close: %v\n", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer shutCancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "ccfit-serve: http shutdown: %v\n", err)
	}
	board.Close()
	f.SettleCache(cache, logf)
	fmt.Fprintln(os.Stderr, "ccfit-serve: drained")
	return served
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
