package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fixLine is one `client N located at (x, y)  (k APs, how)` line read
// from a server's standard output.
type fixLine struct {
	client uint32
	pos    string // "(x, y)" exactly as printed
	x, y   float64
	aps    int
	at     time.Time // when the line was read
}

// fixRE matches the fix line cmd/arraytrack-server prints per result.
var fixRE = regexp.MustCompile(`^client (\d+) located at (\(([-0-9.]+), ([-0-9.]+)\))  \((\d+) APs, [^)]*\)$`)

// proc is one server process under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	log  *os.File

	mu       sync.Mutex
	fixes    []fixLine
	failures []string // stderr lines reporting a failed localization
	addrs    map[string]string
	notify   chan struct{} // pinged (non-blocking) on every fix
}

// addrPatterns pick the listening addresses out of the server's log.
var addrPatterns = map[string]*regexp.Regexp{
	"data": regexp.MustCompile(`listening on (\S+)`),
	"http": regexp.MustCompile(`(?:ops endpoint|router ops) on http://(\S+)`),
}

// startProc execs the server binary with args, streaming its standard
// output into fix lines and its log into dir/<name>.log.
func startProc(bin, dir, name string, args []string, notify chan struct{}) (*proc, error) {
	lf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, log: lf, addrs: map[string]string{}, notify: notify, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	// The child dies with the benchmark if the benchmark dies first.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		lf.Close()
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		lf.Close()
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		p.readStdout(stdout)
	}()
	go func() {
		defer readers.Done()
		p.readStderr(stderr)
	}()
	go func() {
		readers.Wait()
		_ = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) readStdout(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		now := time.Now()
		m := fixRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		id, _ := strconv.ParseUint(m[1], 10, 32)
		x, _ := strconv.ParseFloat(m[3], 64)
		y, _ := strconv.ParseFloat(m[4], 64)
		aps, _ := strconv.Atoi(m[5])
		p.mu.Lock()
		p.fixes = append(p.fixes, fixLine{client: uint32(id), pos: m[2], x: x, y: y, aps: aps, at: now})
		p.mu.Unlock()
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

func (p *proc) readStderr(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(p.log, line)
		p.mu.Lock()
		for key, re := range addrPatterns {
			if m := re.FindStringSubmatch(line); m != nil && p.addrs[key] == "" {
				p.addrs[key] = strings.TrimSuffix(m[1], ":")
			}
		}
		if strings.Contains(line, "localization failed") {
			p.failures = append(p.failures, line)
		}
		p.mu.Unlock()
	}
}

// waitAddrs blocks until the process logged every named address.
func (p *proc) waitAddrs(timeout time.Duration, keys ...string) (map[string]string, error) {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		ok := true
		for _, k := range keys {
			ok = ok && p.addrs[k] != ""
		}
		out := make(map[string]string, len(p.addrs))
		for k, v := range p.addrs {
			out[k] = v
		}
		p.mu.Unlock()
		if ok {
			return out, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before listening (see %s)", p.name, p.log.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s did not log its addresses within %v", p.name, timeout)
		}
	}
}

func (p *proc) fixCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fixes)
}

// cpuTime returns the process's CPU time, summed over its threads
// from /proc/<pid>/task/*/schedstat (nanoseconds on CPU; the 10 ms
// ticks of /proc/<pid>/stat are too coarse for one-second windows).
func (p *proc) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for %s", p.name)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat for %s: %w", p.name, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSS returns the process's VmHWM in bytes.
func (p *proc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// stop asks the process to drain and exit (SIGTERM), killing it if it
// has not exited within the timeout, and waits for it.
func (p *proc) stop(timeout time.Duration) {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(timeout):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return string(b), nil
}

// scrapeMetrics reads a Prometheus text exposition into name →
// value; labelled series are keyed by their full `name{labels}`.
func scrapeMetrics(ctx context.Context, addr string) (map[string]float64, error) {
	body, err := httpGet(ctx, "http://"+addr+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}
