package main

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/testbed"
)

// poolVersion names the input-pool format and generator; bump it when
// either changes so stale cache files are never replayed.
const poolVersion = 1

// workload is one traffic mix: who transmits, how often, in which wire
// form, and what the server under test looks like.
type workload struct {
	name string
	// pool names the input pool; sharded replays walk's inputs.
	pool string
	// clients transmit every period, phases spread evenly across it.
	clients int
	period  time.Duration
	// lap is the input pool's length; the schedule cycles through it,
	// so every client's path must close on itself after one lap.
	lap time.Duration
	// frames per AP per transmission.
	frames int
	// regions sends each transmission as one v2 record per AP with the
	// priority flag and a 2 cm search box; otherwise one v3 batch frame.
	regions bool
	// quorum is the server's -quorum.
	quorum int
	// shards > 0 serves through a router over that many shard
	// processes, starting on one and rebalancing during warm-up.
	shards int
}

var workloads = []workload{
	// Steady tracking, the production state: per-AP spectra and
	// combine are most of a fix, predictive boxes keep synthesis small.
	{
		name: "walk", pool: "walk", clients: 8, period: 100 * time.Millisecond, lap: 5 * time.Second,
		frames: 3, quorum: 3,
	},
	// Interactive fine-pitch queries: the v1/v2 record decoder, region
	// synthesis and its LUT cache, a third of walk's spectra.
	{
		name: "regions", pool: "regions", clients: 36, period: 500 * time.Millisecond, lap: 10 * time.Second,
		frames: 1, regions: true, quorum: 6,
	},
	// Walk's fix work through the router: the difference from walk is
	// the router's decode, partition, re-encode and extra hop.
	{
		name: "sharded", pool: "walk", clients: 8, period: 100 * time.Millisecond, lap: 5 * time.Second,
		frames: 3, quorum: 3, shards: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// perLap is how many transmissions each client makes per pool lap.
func (w workload) perLap() int { return int(w.lap / w.period) }

// walkSpeed is the clients' walking speed in m/s.
const walkSpeed = 1.2

// regionCell is the pitch of every regions query.
const regionCell = 0.02

// regionBoxes is the fixed set of regions search boxes, smallest
// first: a desk cluster up to a whole office. At 2 cm a box may not
// hold more cells than the 10 cm full-floor grid (64 561), the
// server's work cap on untrusted regions, which bounds the largest
// admissible box at about 25 m².
var regionBoxes = []core.Region{
	{Min: geom.Pt(9, 6.5), Max: geom.Pt(11, 8.5)},       // desk cluster by a pillar, 2 x 2 m
	{Min: geom.Pt(16, 6), Max: geom.Pt(19, 8.5)},        // open-plan bay, 3 x 2.5 m
	{Min: geom.Pt(31, 0.5), Max: geom.Pt(35, 3.5)},      // lab bench area, 4 x 3 m
	{Min: geom.Pt(24.5, 8), Max: geom.Pt(28.5, 12)},     // corridor junction, 4 x 4 m
	{Min: geom.Pt(12.4, 0.2), Max: geom.Pt(17.4, 3.8)},  // perimeter office, 5 x 3.6 m
	{Min: geom.Pt(6.5, 12.1), Max: geom.Pt(12.0, 15.9)}, // meeting room, 5.5 x 3.8 m
}

func init() {
	for i := range regionBoxes {
		regionBoxes[i].Cell = regionCell
	}
}

// regionSpots returns per box a fixed set of n client positions,
// uniform inside the box with a 0.4 m margin. Like the walk routes the
// spots are fixed, so every run queries the same places; the seed
// draws the order they are queried in and all channel noise.
func regionSpots(n int) [][]geom.Point {
	const m = 0.4
	out := make([][]geom.Point, len(regionBoxes))
	for i, b := range regionBoxes {
		rng := rand.New(rand.NewSource(routeSeed + 100 + int64(i)))
		for j := 0; j < n; j++ {
			out[i] = append(out[i], geom.Pt(b.Min.X+m+rng.Float64()*(b.Max.X-b.Min.X-2*m),
				b.Min.Y+m+rng.Float64()*(b.Max.Y-b.Min.Y-2*m)))
		}
	}
	return out
}

// transmission is one client transmission as the server receives it:
// the encoded wire bytes (v3 batch frame or v1/v2 records) plus the
// truth it was synthesized from. Timestamps inside Wire are zero until
// stamp writes the scheduled instant at Stamps.
type transmission struct {
	Client   uint32
	Truth    geom.Point
	Box      core.Region
	Wire     []byte
	Stamps   []int
	Frames   int
	Captures int
}

// stamp writes the capture timestamp (µs since the Unix epoch) into
// every capture header of the transmission.
func (t *transmission) stamp(us int64) {
	for _, off := range t.Stamps {
		binary.BigEndian.PutUint64(t.Wire[off:], uint64(us))
	}
}

// inputPool is one workload's synthesized inputs for one seed:
// Tx[client][k] is client's k-th transmission of the lap.
type inputPool struct {
	Version int
	Shape   string
	Seed    int64
	IDs     []uint32
	Tx      [][]transmission
}

// shape names everything about the workload that its pool depends on.
func (w workload) shape() string {
	return fmt.Sprintf("%s clients=%d period=%v lap=%v frames=%d regions=%v", w.pool, w.clients, w.period, w.lap, w.frames, w.regions)
}

// clientIDs returns the workload's client IDs: fixed (not seeded), and
// split evenly between the two shards of the rebalanced map, so every
// seed moves the same clients and loads both shards alike.
func clientIDs(n int) []uint32 {
	m2, err := cluster.NewShardMap(2, 2, 0)
	if err != nil {
		panic(err)
	}
	var ids []uint32
	perShard := [2]int{}
	for id := uint32(1); len(ids) < n; id++ {
		o := m2.Owner(id)
		if perShard[o] < (n+1)/2 {
			perShard[o]++
			ids = append(ids, id)
		}
	}
	return ids
}

// The walk's routes are fixed, like the regions box set: one closed
// rectangular loop per stratum of a walkCols × walkRows grid over the
// floor, so every run covers the whole floor and the accuracy it
// reports is the floor's, not that of wherever a seed put its loops.
// The seed draws where on its loop and in which direction each client
// starts, and all channel noise and frame jitter.
const walkCols, walkRows = 4, 2

// routeSeed fixes the loops' shapes and places inside their strata.
const routeSeed = 1

// walkRoute returns client i's loop of the given perimeter as a
// position function of distance walked (1.5 m clear of outer walls).
func walkRoute(i int, perimeter float64) func(s float64) geom.Point {
	const margin = 1.5
	rng := rand.New(rand.NewSource(routeSeed + int64(i)))
	a := 0.3 + 0.4*rng.Float64()
	w, h := perimeter/2*a, perimeter/2*(1-a)
	sw := (testbed.FloorW - 2*margin) / walkCols
	sh := (testbed.FloorH - 2*margin) / walkRows
	col, row := i%walkCols, (i/walkCols)%walkRows
	x0 := margin + float64(col)*sw + rng.Float64()*math.Max(0, sw-w)
	y0 := margin + float64(row)*sh + rng.Float64()*math.Max(0, sh-h)
	return func(s float64) geom.Point {
		s = math.Mod(math.Mod(s, perimeter)+perimeter, perimeter)
		switch {
		case s < w:
			return geom.Pt(x0+s, y0)
		case s < w+h:
			return geom.Pt(x0+w, y0+s-w)
		case s < 2*w+h:
			return geom.Pt(x0+w-(s-w-h), y0+h)
		default:
			return geom.Pt(x0, y0+h-(s-2*w-h))
		}
	}
}

// poolPath is the cache file of one pool.
func poolPath(dir string, w workload, seed int64) string {
	return filepath.Join(dir, "inputs", fmt.Sprintf("%s-v%d-seed%d.gob", w.pool, poolVersion, seed))
}

// keepPools bounds the input cache: a walk pool is ~230 MB.
const keepPools = 4

// loadOrBuildPool returns the workload's pool for seed, from the cache
// when present, otherwise synthesized and cached.
func loadOrBuildPool(dir string, w workload, seed int64, logf func(string, ...any)) (*inputPool, error) {
	path := poolPath(dir, w, seed)
	if p, err := readPool(path); err == nil && p.Version == poolVersion && p.Shape == w.shape() && p.Seed == seed {
		logf("inputs: %s (cached)", path)
		return p, nil
	}
	start := time.Now()
	p := buildPool(w, seed)
	logf("inputs: synthesized %s pool for seed %d in %.1fs", w.pool, seed, time.Since(start).Seconds())
	if err := writePool(path, p); err != nil {
		return nil, err
	}
	prunePools(filepath.Dir(path), keepPools)
	return p, nil
}

// buildPool synthesizes a pool: ray-traced captures from the testbed's
// channel model at every client position of one lap, encoded as the
// workload's wire form. Each transmission draws from its own
// seed-derived RNG, so the result does not depend on worker scheduling.
func buildPool(w workload, seed int64) *inputPool {
	tb := testbed.New()
	capOpt := testbed.DefaultCaptureOptions()
	capOpt.Frames = w.frames
	ids := clientIDs(w.clients)
	n := w.perLap()
	p := &inputPool{Version: poolVersion, Shape: w.shape(), Seed: seed, IDs: ids, Tx: make([][]transmission, len(ids))}

	truth := make([][]geom.Point, len(ids))
	boxes := make([][]core.Region, len(ids))
	prng := rand.New(rand.NewSource(seed))
	var spots [][]geom.Point // regions: per box, its query spots in seeded order
	var used []int
	if w.regions {
		spots = regionSpots(len(ids) * n / len(regionBoxes))
		for _, sp := range spots {
			prng.Shuffle(len(sp), func(i, j int) { sp[i], sp[j] = sp[j], sp[i] })
		}
		used = make([]int, len(regionBoxes))
	}
	for c := range ids {
		truth[c] = make([]geom.Point, n)
		boxes[c] = make([]core.Region, n)
		p.Tx[c] = make([]transmission, n)
		if w.regions {
			for k := 0; k < n; k++ {
				// Every client cycles the box set from its own offset
				// and queries the box's next spot in the seeded order.
				b := (c + k) % len(regionBoxes)
				boxes[c][k] = regionBoxes[b]
				truth[c][k] = spots[b][used[b]%len(spots[b])]
				used[b]++
			}
			continue
		}
		perimeter := walkSpeed * w.lap.Seconds()
		route := walkRoute(c, perimeter)
		start, dir := prng.Float64()*perimeter, 1.0
		if prng.Intn(2) == 0 {
			dir = -1
		}
		for k := 0; k < n; k++ {
			truth[c][k] = route(start + dir*walkSpeed*(time.Duration(k)*w.period).Seconds())
		}
	}

	type job struct{ c, k int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(j.c)*10_007 + int64(j.k)))
				p.Tx[j.c][j.k] = encodeTransmission(tb, capOpt, w, ids[j.c], truth[j.c][j.k], boxes[j.c][j.k], rng)
			}
		}()
	}
	for c := range ids {
		for k := 0; k < n; k++ {
			jobs <- job{c, k}
		}
	}
	close(jobs)
	wg.Wait()
	return p
}

// encodeTransmission captures one transmission at all six sites and
// encodes it with zero timestamps and the offsets to stamp them at.
func encodeTransmission(tb *testbed.Testbed, capOpt testbed.CaptureOptions, w workload, id uint32, pos geom.Point, box core.Region, rng *rand.Rand) transmission {
	t := transmission{Client: id, Truth: pos, Box: box}
	zero := time.UnixMicro(0)
	var caps []server.Capture
	for s, site := range tb.Sites {
		for f, fc := range tb.CaptureClient(pos, site, capOpt, rng) {
			caps = append(caps, server.Capture{
				APID: uint32(s + 1), ClientID: id, Seq: uint32(f),
				Timestamp: zero, Streams: fc.Streams,
			})
		}
	}
	t.Captures = len(caps)
	if w.regions {
		for i := range caps {
			caps[i].Region, caps[i].Priority = box, true
			off := len(t.Wire)
			var err error
			if t.Wire, err = server.AppendCapture(t.Wire, &caps[i]); err != nil {
				panic(fmt.Sprintf("encode v2 record: %v", err))
			}
			// v2 record header: magic, apID, clientID, seq, then µs.
			t.Stamps = append(t.Stamps, off+16)
			t.Frames++
		}
		return t
	}
	var err error
	if t.Wire, err = server.AppendBatchDelta(nil, caps); err != nil {
		panic(fmt.Sprintf("encode v3 frame: %v", err))
	}
	// Delta-timestamp v3 frame: 12-byte head (flags bit0 set), then the
	// frame's base µs; every capture's delta is zero.
	if binary.BigEndian.Uint16(t.Wire[10:]) != 1 {
		panic("v3 frame is not in delta-timestamp form")
	}
	t.Stamps = []int{12}
	t.Frames = 1
	return t
}

func readPool(path string) (*inputPool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var p inputPool
	if err := gob.NewDecoder(f).Decode(&p); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &p, nil
}

func writePool(path string, p *inputPool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(p); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// prunePools keeps the newest keep pool files in dir.
func prunePools(dir string, keep int) {
	files, _ := filepath.Glob(filepath.Join(dir, "*.gob"))
	if len(files) <= keep {
		return
	}
	mtime := func(p string) time.Time {
		st, err := os.Stat(p)
		if err != nil {
			return time.Time{}
		}
		return st.ModTime()
	}
	sort.Slice(files, func(i, j int) bool { return mtime(files[i]).After(mtime(files[j])) })
	for _, f := range files[keep:] {
		os.Remove(f)
	}
}
