package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/gpmd of the repository at root into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := dir + "/gpmd"
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gpmd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/gpmd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one gpmd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	waited chan struct{}
	err    error // cmd.Wait's result, valid once waited is closed
}

// startDaemon execs gpmd on a free loopback port and returns once it has
// announced its address — graphs parsed and bound, WAL recovered.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{waited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = &d.stderr
	// The child must not outlive a benchmark that dies without cleaning up.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1) // one send, never blocks the reader
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "gpmd: serving <names> on <addr>"
			if line := sc.Text(); strings.HasPrefix(line, "gpmd: serving ") {
				addr <- line[strings.LastIndexByte(line, ' ')+1:]
				break
			}
		}
		io.Copy(io.Discard, stdout)
		d.err = d.cmd.Wait()
		close(d.waited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.waited:
		return nil, fmt.Errorf("gpmd exited before serving: %v\n%s", d.err, d.stderr.String())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("gpmd did not announce its address within 60s\n%s", d.stderr.String())
	}
}

// kill sends SIGKILL — a crash, no parting snapshot — and reaps the child.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.waited
}

// stop shuts the daemon down gracefully, falling back to kill.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// peakRSSMiB reads the child's resident-set high-water mark.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// newHTTPClient returns a client that keeps at most conns connections to
// the daemon, the load generator's whole footprint on it.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
	}}
}

// do sends one request and returns the status and the whole body, read
// into buf.
func do(ctx context.Context, hc *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}
