package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/priu/service"
)

// serverProc is one priuserve child process with a fresh store directory.
type serverProc struct {
	cmd   *exec.Cmd
	done  chan struct{} // closed once the process has been reaped
	base  string
	admin string
	log   *tailBuffer
}

// startServer spawns priuserve with every run-to-run variation source
// pinned and returns once /healthz answers.
func startServer(o options, storeDir string, maxSessions int) (*serverProc, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addrs[0],
		"-admin-addr", addrs[1],
		"-store-dir", storeDir,
		"-max-sessions", strconv.Itoa(maxSessions),
		"-workers", strconv.Itoa(o.workers),
		"-whatif-workers", strconv.Itoa(o.workers),
		"-par-minwork", strconv.Itoa(o.parMinWork),
		"-spill-gc-interval", o.spillGCInterval,
		"-slow-op-ms", strconv.Itoa(o.slowOpMs),
		"-auth", "off",
	}
	p := &serverProc{
		cmd:   exec.Command(o.server, args...),
		done:  make(chan struct{}),
		base:  "http://" + addrs[0],
		admin: "http://" + addrs[1],
		log:   &tailBuffer{max: 16 << 10},
	}
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	// The server must not outlive the benchmark, even if it crashes.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting priuserve: %w", err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := p.health(); err == nil {
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("priuserve exited during startup:\n%s", p.log.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("priuserve not healthy after 30s:\n%s", p.log.String())
		}
	}
}

// freeAddrs finds n distinct free loopback ports, holding each open until
// all are found so none is handed out twice.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

func (p *serverProc) health() (*service.HealthResponse, error) {
	resp, err := http.Get(p.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var h service.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return &h, nil
}

// waitQuiet blocks until the write-behind queue has stayed empty for a few
// consecutive probes, so background spills of the set-up phase do not leak
// into the timed phase.
func (p *serverProc) waitQuiet() error {
	deadline := time.Now().Add(60 * time.Second)
	for quiet := 0; quiet < 3; {
		h, err := p.health()
		if err != nil {
			return err
		}
		if h.SpillQueueDepth == 0 {
			quiet++
		} else {
			quiet = 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("write-behind queue did not drain in 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// stop sends SIGTERM, waits up to 20s for the graceful drain, then kills.
func (p *serverProc) stop() {
	if p == nil {
		return
	}
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// counters is one sample of the server's cumulative counters: the
// /metrics families the per-layer metrics need plus the process's CPU time
// and disk writes from /proc.
type counters map[string]float64

var scrapedFamilies = []string{
	"priu_store_budget_evictions_total",
	"priu_store_spills_total",
	"priu_store_write_behind_spills_total",
	"priu_store_delta_spills_total",
	"priu_store_compactions_total",
	"priu_store_stale_spills_total",
	"priu_store_restores_total",
	"priu_par_dispatches_total",
}

func (p *serverProc) counters() (counters, error) {
	resp, err := http.Get(p.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	all := parseMetrics(body)
	c := counters{}
	for _, name := range scrapedFamilies {
		v, ok := all[name]
		if !ok {
			return nil, fmt.Errorf("/metrics has no %s", name)
		}
		c[name] = v
	}
	pid := p.cmd.Process.Pid
	cpu, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	c["cpu_seconds"] = cpu
	wb, err := procWriteBytes(pid)
	if err != nil {
		return nil, err
	}
	c["write_bytes"] = wb
	return c, nil
}

func (c counters) minus(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// parseMetrics sums Prometheus text samples by family name (labels folded).
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc/<pid>/stat.
const clockTicks = 100

// procCPUSeconds returns utime+stime of a process.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// procWriteBytes returns the bytes a process caused to be sent to storage.
func procWriteBytes(pid int) (float64, error) {
	return procField(fmt.Sprintf("/proc/%d/io", pid), "write_bytes:")
}

// procPeakRSSMB returns a process's peak resident set size (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	kb, err := procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:")
	return kb / 1024, err
}

func procField(path, key string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// tailBuffer keeps the last max bytes written to it (the server log, shown
// only when start-up fails).
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, b...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(b), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// bg is the context of every client call.
var bg = context.Background()
