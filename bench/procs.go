package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// usage is what a reaped child cost the host.
type usage struct {
	cpu   time.Duration // user + sys
	rssMB float64       // peak resident set
}

func (u *usage) add(o usage) {
	u.cpu += o.cpu
	u.rssMB += o.rssMB
}

func usageOf(st *os.ProcessState) usage {
	u := usage{cpu: st.UserTime() + st.SystemTime()}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// runCLI runs one child to completion and returns its stdout, stderr,
// wall time (start -> exit) and rusage. A non-zero exit is reported in
// err with the tail of stderr; stdout is still returned.
func runCLI(ctx context.Context, dir, bin string, args ...string) (stdout, stderr []byte, wall time.Duration, u usage, err error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err = cmd.Run()
	wall = time.Since(t0)
	if cmd.ProcessState != nil {
		u = usageOf(cmd.ProcessState)
	}
	if err != nil {
		err = fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, tail(errb.Bytes(), 2048))
	}
	return out.Bytes(), errb.Bytes(), wall, u, err
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// daemon is a long-running child (ccfit-serve, ccfit-worker). Its
// output goes to files, so no goroutine pumps a pipe; stop asks it to
// drain with SIGTERM, kills it if it has not exited within the grace
// period, and always reaps it.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	cancel context.CancelFunc
	outLog string
	files  []*os.File
	done   bool
	usage  usage
}

const daemonGrace = 5 * time.Second

func startDaemon(ctx context.Context, logDir, name, bin string, args ...string) (*daemon, error) {
	dctx, cancel := context.WithCancel(ctx)
	d := &daemon{name: name, cancel: cancel, outLog: filepath.Join(logDir, name+".out")}
	cmd := exec.CommandContext(dctx, bin, args...)
	cmd.Dir = logDir
	// Cancelling the context delivers SIGTERM (graceful drain); WaitDelay
	// bounds how long Wait then lets the child linger before SIGKILL.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = daemonGrace
	for _, p := range []string{d.outLog, filepath.Join(logDir, name+".err")} {
		f, err := os.Create(p)
		if err != nil {
			d.closeFiles()
			cancel()
			return nil, err
		}
		d.files = append(d.files, f)
	}
	cmd.Stdout, cmd.Stderr = d.files[0], d.files[1]
	if err := cmd.Start(); err != nil {
		d.closeFiles()
		cancel()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d.cmd = cmd
	return d, nil
}

func (d *daemon) closeFiles() {
	for _, f := range d.files {
		_ = f.Close() // log files: nothing to lose on a failed close
	}
	d.files = nil
}

// stop terminates and reaps the child; it is safe to call twice.
func (d *daemon) stop() {
	if d.done {
		return
	}
	d.done = true
	d.cancel()
	// The exit status of a terminated daemon carries no information the
	// benchmark uses; what matters is that Wait has reaped it.
	_ = d.cmd.Wait()
	if d.cmd.ProcessState != nil {
		d.usage = usageOf(d.cmd.ProcessState)
	}
	d.closeFiles()
}

// fleet is one ccfit-serve with its ccfit-worker processes.
type fleet struct {
	url     string
	serve   *daemon
	workers []*daemon
}

const fleetReadyTimeout = 15 * time.Second

// launchFleet starts the service in dir and returns once /healthz
// answers and /workers lists the whole fleet. On any failure everything
// already started is stopped and reaped before the error returns.
func launchFleet(ctx context.Context, binDir, dir string) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()
	serve, err := startDaemon(ctx, dir, "serve", filepath.Join(binDir, "ccfit-serve"), serveArgv(filepath.Join(dir, "data"))...)
	if err != nil {
		return nil, err
	}
	f.serve = serve
	deadline := time.Now().Add(fleetReadyTimeout)
	if f.url, err = waitHandshake(ctx, serve.outLog, deadline); err != nil {
		return nil, err
	}
	if err := pollUntil(ctx, deadline, func() bool { return httpJSON(ctx, f.url+"/healthz", nil) == nil }); err != nil {
		return nil, fmt.Errorf("ccfit-serve /healthz: %w", err)
	}
	for i := 0; i < fleetSize; i++ {
		name := fmt.Sprintf("worker%d", i)
		w, err := startDaemon(ctx, dir, name, filepath.Join(binDir, "ccfit-worker"), workerArgv(f.url, i)...)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	listed := func() bool {
		var ws []json.RawMessage
		return httpJSON(ctx, f.url+"/workers", &ws) == nil && len(ws) == fleetSize
	}
	if err := pollUntil(ctx, deadline, listed); err != nil {
		return nil, fmt.Errorf("ccfit-serve /workers never listed %d workers: %w", fleetSize, err)
	}
	ok = true
	return f, nil
}

// stop drains workers first (so none is mid-claim when the service
// goes), then the service, and returns what the fleet cost.
func (f *fleet) stop() usage {
	var u usage
	for _, w := range f.workers {
		w.stop()
		u.add(w.usage)
	}
	if f.serve != nil {
		f.serve.stop()
		u.add(f.serve.usage)
	}
	return u
}

// waitHandshake polls the service's stdout log for its listening line.
func waitHandshake(ctx context.Context, log string, deadline time.Time) (string, error) {
	var url string
	err := pollUntil(ctx, deadline, func() bool {
		data, err := os.ReadFile(log)
		if err != nil {
			return false
		}
		lines := strings.Split(string(data), "\n")
		for _, line := range lines[:len(lines)-1] { // the last element is an unterminated line
			if rest, ok := strings.CutPrefix(line, serveHandshake); ok {
				url = strings.TrimSpace(rest)
				return true
			}
		}
		return false
	})
	if err != nil {
		return "", fmt.Errorf("ccfit-serve never printed its handshake line: %w", err)
	}
	return url, nil
}

var errNotReady = errors.New("not ready before the deadline")

func pollUntil(ctx context.Context, deadline time.Time, ready func() bool) error {
	for {
		if ready() {
			return nil
		}
		if time.Now().After(deadline) {
			return errNotReady
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// httpJSON GETs url and decodes the JSON body into out (nil = discard).
func httpJSON(ctx context.Context, url string, out any) error {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
