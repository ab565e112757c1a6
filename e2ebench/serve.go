package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
)

// warmup precedes the measured phase: lazy cache builds finish, tracks
// mature, and (sharded) the live rebalance runs, at its midpoint.
const warmup = 4 * time.Second

// window is the measured phase's unit: latency quantiles and CPU per
// fix are computed per window and reported as the median over the
// windows, so a burst of interference from other tenants of a shared
// host moves a window, not the run.
const window = time.Second

// send is one scheduled transmission.
type send struct {
	at time.Duration // intended send instant, from the run's origin
	tx *transmission
}

// schedule lays out the open loop: client c transmits every period
// from phase c·period/clients, cycling its lap of the pool, for total.
// Sends are ordered by intended instant.
func schedule(w workload, p *inputPool, total time.Duration) []send {
	var out []send
	n := w.perLap()
	for c := range p.IDs {
		phase := time.Duration(c) * w.period / time.Duration(len(p.IDs))
		for k := 0; phase+time.Duration(k)*w.period < total; k++ {
			out = append(out, send{at: phase + time.Duration(k)*w.period, tx: &p.Tx[c][k%n]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// served is what one timed run observed.
type served struct {
	origin   time.Time // the schedule's zero instant
	baseUS   int64     // wall clock µs stamped at the origin
	setup    time.Duration
	late     []time.Duration // per send
	fixes    [][]fixLine     // per send: every fix line matched to it
	shardOf  [][]int         // per send: which shard printed each matched fix
	cpu      []time.Duration // Σ server CPU at each measured window boundary
	rss      int64           // Σ VmHWM, bytes
	start    map[string]float64
	end      map[string]float64 // Σ over shards of /metrics at drain
	leased   float64
	router   cluster.RouterStats
	rebStart time.Duration // sharded: rebalance window, from the origin
	rebEnd   time.Duration
	problems []string
}

func (s *served) problemf(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// serve runs the workload's schedule against real server processes and
// collects what they printed and what /proc and /metrics say.
func serve(ctx context.Context, bin, dir string, w workload, sched []send, windows int, logf func(string, ...any)) (*served, error) {
	runDir := filepath.Join(dir, "run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	notify := make(chan struct{}, 1)
	var procs []*proc
	defer func() {
		for _, p := range procs {
			p.stop(5 * time.Second)
		}
	}()
	quorum := strconv.Itoa(w.quorum)
	execAt := time.Now()

	var dataAddr, routerHTTP string
	var shardHTTP []string
	var shards []*proc
	if w.shards == 0 {
		p, err := startProc(bin, runDir, "server", []string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-quorum", quorum}, notify)
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
		addrs, err := p.waitAddrs(30*time.Second, "data", "http")
		if err != nil {
			return nil, err
		}
		dataAddr = addrs["data"]
		shards = []*proc{p}
		shardHTTP = []string{addrs["http"]}
	} else {
		// Socket paths relative to the working directory the servers
		// share: an absolute path under a deep checkout could overflow
		// the 108-byte unix socket address.
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		var socks, ops []string
		for i := 0; i < w.shards; i++ {
			sock, err := filepath.Rel(wd, filepath.Join(runDir, fmt.Sprintf("s%d.sock", i)))
			if err != nil {
				return nil, err
			}
			p, err := startProc(bin, runDir, fmt.Sprintf("shard%d", i), []string{
				"-shard", fmt.Sprintf("%d/%d", i, w.shards), "-listen", "unix:" + sock,
				"-http", "127.0.0.1:0", "-quorum", quorum}, notify)
			if err != nil {
				return nil, err
			}
			procs = append(procs, p)
			shards = append(shards, p)
			socks = append(socks, "unix:"+sock)
		}
		for _, p := range shards {
			addrs, err := p.waitAddrs(30*time.Second, "data", "http")
			if err != nil {
				return nil, err
			}
			shardHTTP = append(shardHTTP, addrs["http"])
			ops = append(ops, "http://"+addrs["http"])
		}
		r, err := startProc(bin, runDir, "router", []string{"-router", "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-shards", strings.Join(socks, ","), "-shard-ops", strings.Join(ops, ","), "-map-shards", "1"}, notify)
		if err != nil {
			return nil, err
		}
		procs = append(procs, r)
		addrs, err := r.waitAddrs(30*time.Second, "data", "http")
		if err != nil {
			return nil, err
		}
		dataAddr, routerHTTP = addrs["data"], addrs["http"]
	}

	conn, err := net.Dial("tcp", dataAddr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", dataAddr, err)
	}
	defer conn.Close()

	res := &served{late: make([]time.Duration, len(sched))}
	res.origin = time.Now()
	res.baseUS = res.origin.UnixMicro()

	// The open-loop sender: one goroutine, one connection, each
	// transmission written at its intended instant whatever the server
	// is doing, stamped with that instant.
	sendErr := make(chan error, 1)
	go func() {
		for i := range sched {
			s := &sched[i]
			due := res.origin.Add(s.at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			res.late[i] = time.Since(due)
			s.tx.stamp(res.baseUS + s.at.Microseconds())
			if _, err := conn.Write(s.tx.Wire); err != nil {
				sendErr <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		sendErr <- nil
	}()

	totalFixes := func() int {
		n := 0
		for _, p := range shards {
			n += p.fixCount()
		}
		return n
	}
	// setup_s: exec to the first fix answered through the served path.
	for totalFixes() == 0 {
		select {
		case <-notify:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("no fix within 30s of start")
		}
	}
	res.setup = firstFix(shards).Sub(execAt)

	if w.shards > 0 {
		time.Sleep(time.Until(res.origin.Add(warmup / 2)))
		res.rebStart = time.Since(res.origin)
		body := fmt.Sprintf(`{"version":2,"shards":%d}`, w.shards)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+routerHTTP+"/cluster/rebalance", strings.NewReader(body))
		resp, err := httpClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("rebalance: %w", err)
		}
		resp.Body.Close()
		res.rebEnd = time.Since(res.origin)
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("rebalance: %s", resp.Status)
		}
		if res.rebEnd >= warmup {
			res.problemf("rebalance ran past warm-up (%v)", res.rebEnd)
		}
		logf("rebalance 1->%d shards from %v to %v", w.shards, res.rebStart.Round(time.Millisecond), res.rebEnd.Round(time.Millisecond))
	}

	// Measured phase: counters from its start to the drain, server CPU
	// sampled at every window boundary.
	for j := 0; j <= windows; j++ {
		time.Sleep(time.Until(res.origin.Add(warmup + time.Duration(j)*window)))
		cpu, err := sumCPU(procs)
		if err != nil {
			return nil, err
		}
		res.cpu = append(res.cpu, cpu)
		if j == 0 {
			if res.start, err = sumMetrics(ctx, shardHTTP); err != nil {
				return nil, err
			}
		}
	}
	if err := <-sendErr; err != nil {
		return nil, err
	}
	drainBy := time.Now().Add(30 * time.Second)
	for totalFixes() < len(sched) && time.Now().Before(drainBy) {
		select {
		case <-notify:
		case <-time.After(100 * time.Millisecond):
		}
	}
	if n := totalFixes(); n != len(sched) {
		res.problemf("fixes read %d != transmissions sent %d after drain", n, len(sched))
	}
	for _, p := range procs {
		rss, err := p.peakRSS()
		if err != nil {
			return nil, err
		}
		res.rss += rss
	}
	if routerHTTP != "" {
		body, err := httpGet(ctx, "http://"+routerHTTP+"/cluster/stats")
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal([]byte(body), &res.router); err != nil {
			return nil, fmt.Errorf("router stats: %w", err)
		}
	}
	if res.end, err = sumMetrics(ctx, shardHTTP); err != nil {
		return nil, err
	}

	// Drained: close every data connection into the shards, so their
	// readers hand back the workspace each leases while blocked.
	conn.Close()
	if w.shards > 0 {
		procs[len(procs)-1].stop(10 * time.Second)
	}
	res.leased = -1
	for wait := time.Now().Add(5 * time.Second); ; {
		m, err := sumMetrics(ctx, shardHTTP)
		if err != nil {
			return nil, err
		}
		res.leased = m["arraytrack_leased_ingest_workspaces"]
		if res.leased == 0 || time.Now().After(wait) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, p := range shards {
		p.mu.Lock()
		for _, f := range p.failures {
			res.problemf("%s: %s", p.name, f)
		}
		p.mu.Unlock()
	}
	res.fixes, res.shardOf = matchFixes(sched, shards)
	return res, nil
}

// firstFix is the earliest fix line's read instant over the shards.
func firstFix(shards []*proc) time.Time {
	var first time.Time
	for _, p := range shards {
		p.mu.Lock()
		if len(p.fixes) > 0 && (first.IsZero() || p.fixes[0].at.Before(first)) {
			first = p.fixes[0].at
		}
		p.mu.Unlock()
	}
	return first
}

func sumCPU(procs []*proc) (time.Duration, error) {
	var total time.Duration
	for _, p := range procs {
		t, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// sumMetrics scrapes every backend's /metrics and sums each series.
func sumMetrics(ctx context.Context, addrs []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, a := range addrs {
		m, err := scrapeMetrics(ctx, a)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// matchFixes pairs fix lines with transmissions. A client's jobs run
// one at a time (10 Hz against millisecond fixes), so its k-th fix on
// one shard answers its k-th transmission routed there; a client that
// migrated has its fixes on the losing shard first. Shards are taken
// in order of each client's first fix on them.
func matchFixes(sched []send, shards []*proc) ([][]fixLine, [][]int) {
	type tagged struct {
		f     fixLine
		shard int
	}
	perClient := map[uint32][][]tagged{} // client → per-shard lines
	for si, p := range shards {
		p.mu.Lock()
		for _, f := range p.fixes {
			groups := perClient[f.client]
			if groups == nil {
				groups = make([][]tagged, len(shards))
			}
			groups[si] = append(groups[si], tagged{f, si})
			perClient[f.client] = groups
		}
		p.mu.Unlock()
	}
	ordered := map[uint32][]tagged{}
	for id, groups := range perClient {
		sort.SliceStable(groups, func(i, j int) bool {
			if len(groups[i]) == 0 || len(groups[j]) == 0 {
				return len(groups[i]) > len(groups[j])
			}
			return groups[i][0].f.at.Before(groups[j][0].f.at)
		})
		for _, g := range groups {
			ordered[id] = append(ordered[id], g...)
		}
	}
	fixes := make([][]fixLine, len(sched))
	shardOf := make([][]int, len(sched))
	next := map[uint32]int{}
	for i, s := range sched {
		id := s.tx.Client
		lines := ordered[id]
		if k := next[id]; k < len(lines) {
			fixes[i] = append(fixes[i], lines[k].f)
			shardOf[i] = append(shardOf[i], lines[k].shard)
			next[id] = k + 1
		}
	}
	// Lines beyond a client's transmissions are duplicates: attach them
	// to its last transmission so the one-fix-per-transmission check
	// sees them.
	last := map[uint32]int{}
	for i, s := range sched {
		last[s.tx.Client] = i
	}
	for id, lines := range ordered {
		i, ok := last[id]
		for k := next[id]; k < len(lines); k++ {
			if !ok {
				continue
			}
			fixes[i] = append(fixes[i], lines[k].f)
			shardOf[i] = append(shardOf[i], lines[k].shard)
		}
	}
	return fixes, shardOf
}
