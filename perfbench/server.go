package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running fbserve process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	exited chan error // receives cmd.Wait's result once
	done   bool
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs fbserve and waits until /healthz first answers 200.
// It returns the server and the time from exec to that answer.
func startServer(bin string, args func(addr string) []string, logPath string, timeout time.Duration) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args(addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, addr: addr, log: logf, exited: make(chan error, 1)}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, 0, err
	}
	go func() { s.exited <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		if resp, err := client.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, time.Since(t0), nil
			}
		}
		select {
		case err := <-s.exited:
			s.done = true
			_ = logf.Close()
			return nil, 0, fmt.Errorf("fbserve exited during start-up (%v); log:\n%s", err, tail(logPath))
		default:
		}
		if time.Since(t0) > timeout {
			s.stop()
			return nil, 0, fmt.Errorf("fbserve not healthy after %v; log:\n%s", timeout, tail(logPath))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server and waits for it to exit. The server's state is
// discarded, so there is no graceful shutdown to wait for.
func (s *server) stop() {
	if s == nil || s.done {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.done = true
	_ = s.log.Close()
}

// peakRSSMB reads the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuTicks reads the machine's steal and total CPU ticks from the first
// line of /proc/stat, or zeros where it cannot. Steal is time the
// hypervisor gave this VM's vCPUs to other guests; its share over a
// phase tells a contended host apart from a slower program.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// serverStats is the part of fbserve's /stats the benchmark reads.
type serverStats struct {
	Collections map[string]struct {
		Opened        int64  `json:"opened"`
		Closed        int64  `json:"closed"`
		Feedbacks     int64  `json:"feedbacks"`
		Predictions   int64  `json:"predictions"`
		CacheHits     int64  `json:"cache_hits"`
		WarmStarts    int64  `json:"warm_starts"`
		InsertsStored int64  `json:"inserts_stored"`
		Retrieval     string `json:"retrieval"`
		Tree          struct {
			Points int `json:"Points"`
		} `json:"tree"`
	} `json:"collections"`
}

// scrape is one read of /metrics and /stats.
type scrape struct {
	prom  promScrape
	stats serverStats
}

func (s *server) scrape() (scrape, error) {
	c, err := dial(s.addr)
	if err != nil {
		return scrape{}, err
	}
	defer c.Close()
	code, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return scrape{}, err
	}
	if code != http.StatusOK {
		return scrape{}, fmt.Errorf("GET /metrics: status %d", code)
	}
	prom, err := parseProm(bytes.NewReader(body))
	if err != nil {
		return scrape{}, err
	}
	var st serverStats
	if err := c.getJSON("/stats", &st); err != nil {
		return scrape{}, err
	}
	if _, ok := st.Collections["default"]; !ok {
		return scrape{}, fmt.Errorf("/stats has no default collection")
	}
	return scrape{prom: prom, stats: st}, nil
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}
