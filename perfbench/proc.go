package main

import (
	"bytes"
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

// serverProc is one running paceserve process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	logs   *tailBuffer
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// readyTimeout bounds the wait for /readyz after the process starts.
const readyTimeout = 60 * time.Second

// startServer launches paceserve on a free loopback port and waits until
// /readyz answers 200.
func startServer(binDir string, client *http.Client, args ...string) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		s := &serverProc{
			cmd:    exec.Command(filepath.Join(binDir, "paceserve"), append([]string{"-addr", addr}, args...)...),
			base:   "http://" + addr,
			logs:   &tailBuffer{max: 8 << 10},
			exited: make(chan struct{}),
		}
		s.cmd.Stdout = s.logs
		s.cmd.Stderr = s.logs
		if err := s.cmd.Start(); err != nil {
			return nil, err
		}
		track(s.cmd.Process)
		go func() { s.err = s.cmd.Wait(); untrack(s.cmd.Process); close(s.exited) }()
		if lastErr = s.waitReady(client); lastErr == nil {
			return s, nil
		}
		s.stop()
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *serverProc) waitReady(client *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("paceserve exited before ready (%v): %s", s.err, s.logs.String())
		default:
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("paceserve not ready after %s: %s", readyTimeout, s.logs.String())
}

// stop ends the process with SIGTERM (SIGKILL after a grace period) and
// waits for it.
func (s *serverProc) stop() {
	if s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpuSeconds is the process's user plus system CPU time so far, all
// threads, from /proc/<pid>/stat.
func (s *serverProc) cpuSeconds() (float64, error) {
	return procCPUSeconds(s.cmd.Process.Pid)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func (s *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	// utime and stime are fields 14 and 15 overall: 11 and 12 after ')'.
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// live holds every child process still running, so the run's watchdog can
// stop them before giving up.
var live = struct {
	sync.Mutex
	procs map[*os.Process]bool
}{procs: map[*os.Process]bool{}}

func track(p *os.Process) {
	live.Lock()
	live.procs[p] = true
	live.Unlock()
}

func untrack(p *os.Process) {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// killAll kills every tracked child process and waits, up to a few
// seconds, until each has ended.
func killAll() {
	live.Lock()
	procs := make([]*os.Process, 0, len(live.procs))
	for p := range live.procs {
		_ = p.Kill()
		procs = append(procs, p)
	}
	live.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range procs {
		for !procEnded(p.Pid) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// procEnded reports whether pid has exited: it is gone or a zombie
// waiting to be reaped.
func procEnded(pid int) bool {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	i := bytes.LastIndexByte(data, ')')
	return i < 0 || i+2 >= len(data) || data[i+2] == 'Z'
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
