package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
)

// daemon is one multihitd child process with its own data directory.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logs    *tailBuf
	exited  chan struct{}
	waitErr error
	// setup is the time from exec until /readyz first reported ready.
	setup time.Duration
}

// startDaemon launches multihitd on a loopback port chosen by the kernel
// and waits until /readyz reports ready.
func startDaemon(ctx context.Context, bin, dir string, workers int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	d := &daemon{logs: &tailBuf{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-data-dir", filepath.Join(dir, "data"),
		"-workers", strconv.Itoa(workers))
	d.cmd.Stdout = d.logs
	d.cmd.Stderr = d.logs
	// The daemon dies with the benchmark even if the benchmark crashes.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitReady(ctx, addrFile, 30*time.Second); err != nil {
		d.stop()
		return nil, fmt.Errorf("%w\ndaemon log tail:\n%s", err, d.logs.String())
	}
	d.setup = time.Since(start)
	return d, nil
}

// awaitReady polls for the bound address, then for /readyz, pausing
// pollPause between polls. The daemon's set-up takes a few
// milliseconds, so the polls must resolve far below the Go runtime's
// timer, which rounds short sleeps up to about a millisecond here: the
// loop sleeps with nanosleep on its own thread with a 1 ns timer slack,
// which wakes within about 30 µs. A /readyz request sent once the
// address exists waits in the listen backlog until the daemon serves
// it, so a ready daemon is seen without a further poll.
func (d *daemon) awaitReady(ctx context.Context, addrFile string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	slack, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, slack, 0)
	pause := syscall.NsecToTimespec(int64(pollPause))
	var cli *client.Client
	for first := true; ; first = false {
		if !first {
			_ = syscall.Nanosleep(&pause, nil)
		}
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited before ready: %v", d.waitErr)
		case <-ctx.Done():
			return fmt.Errorf("daemon not ready: %w", ctx.Err())
		default:
		}
		if cli == nil {
			data, err := os.ReadFile(addrFile)
			if err != nil || !strings.HasSuffix(string(data), "\n") {
				continue
			}
			d.url = "http://" + strings.TrimSpace(string(data))
			if cli, err = client.New(client.Config{BaseURL: d.url, Timeout: time.Second, MaxRetries: -1}); err != nil {
				return err
			}
		}
		if rd, err := cli.Readiness(ctx); err == nil && rd.Ready {
			return nil
		}
	}
}

// pollPause is awaitReady's pause between polls; prGetTimerSlack and
// prSetTimerSlack are Linux's PR_GET_TIMERSLACK and PR_SET_TIMERSLACK.
const (
	pollPause       = 20 * time.Microsecond
	prGetTimerSlack = 30
	prSetTimerSlack = 29
)

// procStatus reads one "Key: value kB" field of /proc/<pid>/status in
// megabytes.
func (d *daemon) procStatusMB(key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", key, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", key, d.cmd.Process.Pid)
}

// cpuSeconds is the daemon's utime+stime so far, from /proc/<pid>/stat
// (USER_HZ ticks, 100 per second on Linux).
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / 100, nil
}

// hostSteal returns the steal and total jiffies of /proc/stat's cpu
// line (zeros when unreadable): on a virtual machine, time the host gave
// to other guests, the main source of run-to-run noise there.
func hostSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stop sends SIGTERM (the daemon parks running jobs and exits), waits up
// to ten seconds, then SIGKILLs; it returns once the process has ended.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// tailBuf keeps the last 32 KiB of the daemon's log output for error
// reports. exec.Cmd writes to it from a copying goroutine.
type tailBuf struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 32<<10; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
