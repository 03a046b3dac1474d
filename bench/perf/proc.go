package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// child is one running rerankd process.
type child struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	execAt  time.Time     // when the process was started
	exited  chan struct{} // closed once Wait has returned
}

// live tracks what must not outlive the benchmark: child processes and
// scratch directories. cleanup() runs on every exit path.
var live struct {
	mu       sync.Mutex
	children map[*child]struct{}
	dirs     []string
}

func cleanup() {
	live.mu.Lock()
	children := make([]*child, 0, len(live.children))
	for c := range live.children {
		children = append(children, c)
	}
	dirs := live.dirs
	live.dirs = nil
	live.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d)
	}
}

// scratchDir creates a directory under root that cleanup() removes.
func scratchDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", err
	}
	live.mu.Lock()
	live.dirs = append(live.dirs, d)
	live.mu.Unlock()
	return d, nil
}

// The driver and the service each get a processor of their own when the
// machine has two: the driver (generator, clients, stub) runs on CPU 0 and
// rerankd on the rest. Otherwise the two compete for the same cores, and
// how much CPU the driver happens to use decides how fast the service
// looks. Affinity is inherited across fork and by new threads.

// setAffinity restricts thread tid (0 = the calling thread) to the CPUs in
// mask.
func setAffinity(tid int, mask uint64) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	return nil
}

// cpuMasks returns the CPU sets of the driver and of the service; ok is
// false when the machine has a single CPU and nothing is pinned.
func cpuMasks() (driver, service uint64, ok bool) {
	n := runtime.NumCPU()
	if n < 2 {
		return 0, 0, false
	}
	if n > 64 {
		n = 64
	}
	all := ^uint64(0) >> (64 - n)
	return 1, all &^ 1, true
}

// pinDriver moves every thread of this process to the driver's CPU.
func pinDriver() error {
	driver, _, ok := cpuMasks()
	if !ok {
		return nil
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, driver); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// startPinned starts cmd on the service's CPUs: the forking thread takes
// the service's affinity for the duration of the fork, the child inherits
// it, and the thread returns to the driver's CPU.
func startPinned(cmd *exec.Cmd) error {
	driver, service, ok := cpuMasks()
	if !ok {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, service); err != nil {
		return err
	}
	err := cmd.Start()
	if aerr := setAffinity(0, driver); aerr != nil && err == nil {
		err = aerr
	}
	return err
}

// freePort asks the kernel for an unused loopback port. The port is
// released before rerankd binds it, so a collision is possible but rare;
// startRerankd retries.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startRerankd launches the rerankd binary against the stub upstream and
// waits until /healthz answers 200. ready is when that first 200 arrived.
func startRerankd(bin, upstreamURL, dir string, extra []string) (c *child, ready time.Time, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		c, ready, err = startRerankdOnce(bin, upstreamURL, dir, extra)
		if err == nil {
			return c, ready, nil
		}
	}
	return nil, time.Time{}, err
}

func startRerankdOnce(bin, upstreamURL, dir string, extra []string) (*child, time.Time, error) {
	port, err := freePort()
	if err != nil {
		return nil, time.Time{}, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{
		"-upstream", upstreamURL,
		"-addr", addr,
		"-size-hint", strconv.Itoa(corpusSize),
	}, extra...)
	logPath := filepath.Join(dir, fmt.Sprintf("rerankd-%d.log", port))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, time.Time{}, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The child dies with the driver even when the driver is killed -9.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	c.execAt = time.Now()
	if err := startPinned(cmd); err != nil {
		logFile.Close()
		return nil, time.Time{}, fmt.Errorf("start rerankd: %w", err)
	}
	logFile.Close() // the child holds its own descriptor
	live.mu.Lock()
	if live.children == nil {
		live.children = make(map[*child]struct{})
	}
	live.children[c] = struct{}{}
	live.mu.Unlock()
	go func() {
		_ = cmd.Wait()
		close(c.exited)
	}()

	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			c.kill()
			return nil, time.Time{}, fmt.Errorf("rerankd exited during boot:\n%s", c.logTail())
		default:
		}
		resp, err := hc.Get(c.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Now(), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	c.kill()
	return nil, time.Time{}, fmt.Errorf("rerankd not healthy after 30s:\n%s", c.logTail())
}

// kill sends SIGKILL and waits for the process to be reaped. Safe to call
// more than once.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.exited
	live.mu.Lock()
	delete(live.children, c)
	live.mu.Unlock()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) logTail() string {
	raw, err := os.ReadFile(c.logPath)
	if err != nil {
		return err.Error()
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// procCPU returns the CPU time a process has used so far, user and system:
// the sum of its threads' on-CPU time from the scheduler's own accounting
// (/proc/<pid>/task/*/schedstat, nanoseconds). utime+stime in /proc/<pid>/stat
// say the same in 10 ms ticks, too coarse for a quarter-second chunk.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // the thread exited between the listing and the read
			}
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) < 1 {
			return 0, fmt.Errorf("malformed schedstat of task %s", t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed schedstat of task %s: %w", t.Name(), err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// procPeakRSS returns a process's VmHWM in bytes.
func procPeakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb * 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns the CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
