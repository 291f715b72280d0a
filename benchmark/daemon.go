package main

// daemon.go builds the real binaries and runs seedex-serve (and
// seedex-index) as child processes. What it knows of the program is its
// command line, /healthz, and the JSON document at /metrics.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles the two commands of the program into dir. The
// benchmark is its own module that requires the program's, so the
// packages are named by import path.
func buildBinaries(ctx context.Context, dir string) (serve, index string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"seedex/cmd/seedex-serve", "seedex/cmd/seedex-index")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("building the program: %w\n%s", err, out)
	}
	return filepath.Join(dir, "seedex-serve"), filepath.Join(dir, "seedex-index"), nil
}

// buildIndexFile runs `seedex-index build`, the program's own set-up step.
func buildIndexFile(ctx context.Context, indexBin, fasta, out string) error {
	cmd := exec.CommandContext(ctx, indexBin, "build", "-ref", fasta, "-out", out)
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("seedex-index build: %w\n%s", err, b)
	}
	return nil
}

type daemon struct {
	cmd      *exec.Cmd
	addr     string // host:port
	url      string // http://host:port
	log      *os.File
	exited   chan struct{} // closed once the process has been waited for
	exitErr  error
	stopOnce sync.Once
}

// startDaemon launches seedex-serve on a free loopback port with
// GOMAXPROCS=procs and waits for /healthz to answer 200.
func startDaemon(ctx context.Context, serveBin string, flags []string, procs int, logPath string) (*daemon, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(serveBin, append([]string{"-addr", addr}, flags...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, url: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		d.exitErr = cmd.Wait()
		close(d.exited)
	}()

	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, err := hc.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.stop()
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("seedex-serve exited before it was healthy: %v\n%s", d.exitErr, tail)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("seedex-serve not healthy after 30s; see " + logPath)
		}
	}
}

// stop asks for a graceful drain, waits for the process to end, and kills
// it if the drain takes longer than the daemon's own budget. It may be
// called more than once.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
		d.log.Close()
	})
}

func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// daemonCounters is the part of the /metrics JSON document the per-layer
// numbers are read from.
type daemonCounters struct {
	Rejected       int64   `json:"jobs_rejected"`
	Completed      int64   `json:"jobs_completed"`
	Batches        int64   `json:"batches"`
	QueueWaitP50Us float64 `json:"queue_wait_p50_us"`
	QueueWaitP99Us float64 `json:"queue_wait_p99_us"`
	Checks         struct {
		Total         int64 `json:"total"`
		Passed        int64 `json:"passed"`
		Reruns        int64 `json:"reruns"`
		ThresholdOnly int64 `json:"threshold_only"`
	} `json:"checks"`
}

func (d *daemon) counters() (daemonCounters, error) {
	var c daemonCounters
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go runs on.
const clockTick = 100

// cpuSeconds is the daemon's utime+stime from /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTick, nil
}

// rssMB is the daemon's VmRSS.
func (d *daemon) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// sampleRSS reads the daemon's resident set every rssInterval until stop
// is closed.
func (d *daemon) sampleRSS(stop <-chan struct{}) []float64 {
	var samples []float64
	tick := time.NewTicker(rssInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if mb, err := d.rssMB(); err == nil {
				samples = append(samples, mb)
			}
		case <-stop:
			return samples
		}
	}
}

const rssInterval = 100 * time.Millisecond

// selfCPUSeconds is the benchmark process's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
