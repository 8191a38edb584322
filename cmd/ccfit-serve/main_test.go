package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestSlowHeaderDisconnected: a client that opens a connection and
// never finishes its request header is dropped once the header timeout
// passes, instead of holding the connection for as long as it likes.
func TestSlowHeaderDisconnected(t *testing.T) {
	served := make(chan struct{}, 1)
	srv := newServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { served <- struct{}{} }), context.Background())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v: either would cut parked claims and event streams", srv.ReadTimeout, srv.WriteTimeout)
	}
	const timeout = 200 * time.Millisecond
	srv.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Error(err)
		}
	})

	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The header block never gets its closing blank line.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: ccfit\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(10 * timeout)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 512))
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatalf("connection still open after %v (header timeout %v)", time.Since(start), timeout)
	case err == nil:
		t.Fatalf("server answered %d bytes to an unfinished header", n)
	}
	// The server's clock starts after the dial's, so this bound is exact.
	if elapsed := time.Since(start); elapsed < timeout {
		t.Errorf("disconnected after %v, before the header timeout %v", elapsed, timeout)
	}
	select {
	case <-served:
		t.Error("the handler ran for an unfinished header")
	default:
	}
}

// TestRetryFlagsUnknown: a job runs once, so -retries and -retry-backoff
// are unknown flags and using one exits with status 2. The test binary
// re-runs itself as ccfit-serve to reach main's flag handling.
func TestRetryFlagsUnknown(t *testing.T) {
	if args := os.Getenv("CCFIT_TEST_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"ccfit-serve"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-retries 2", "-retry-backoff 1s"} {
		// A tool that accepted the flag would run until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestRetryFlagsUnknown$")
		cmd.Env = append(os.Environ(), "CCFIT_TEST_MAIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("ccfit-serve %s: %v, output:\n%s", args, err, out)
		}
	}
}
