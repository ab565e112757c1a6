// Command e2ebench is ArrayTrack's end-to-end benchmark. It drives the
// real arraytrack-server binary (and its -router mode over two shard
// processes) as child processes over real sockets from one open-loop
// generator, times every fix from its transmission's intended send
// instant to the moment its fix line is read, reads the servers' CPU
// and peak memory from /proc, and checks every served fix against an
// in-process engine replaying the same bytes. With -trace 1 it also
// replays the inputs serially through each layer's entry points with
// a span per call and prints the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds both
// binaries first:
//
//	bash e2ebench/run.sh --workload walk --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/testbed"
)

// errBoundCM is the accuracy gate on err_p50_cm: twice the 6-AP median
// of `atbench -exp fig15 -fast` (33 cm over 10 of the testbed's fixed
// client spots), room for walking and region positions elsewhere on
// the floor.
const errBoundCM = 66

// maxLateness bounds every measured fix's latency: a fix that takes
// longer means the server fell behind the offered rate.
const maxLateness = 2 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: walk, regions or sharded")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and prints the per-layer metrics")
	inputsOnly := flag.Bool("inputs-only", false, "synthesize the workload's input pool for -seed afresh and exit")
	bin := flag.String("server", ".bench_build/arraytrack-server", "arraytrack-server binary")
	dir := flag.String("dir", ".bench_build", "directory for the input cache, logs, sockets and traces")
	flag.Parse()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...) }

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("want -workload walk|regions|sharded, -seconds >= 1, -trace 0|1")
		return 2
	}
	if *inputsOnly {
		os.Remove(poolPath(*dir, w, *seed))
	}
	pool, err := loadOrBuildPool(*dir, w, *seed, logf)
	if err != nil {
		logf("inputs: %v", err)
		return 1
	}
	if *inputsOnly {
		return 0
	}
	sched := schedule(w, pool, warmup+time.Duration(*seconds)*window)

	ctx := context.Background()
	res, err := serve(ctx, *bin, *dir, w, sched, *seconds, logf)
	if err != nil {
		logf("served run: %v", err)
		return 1
	}

	rp, err := newReplayer(w, *trace == 1)
	if err != nil {
		logf("replay: %v", err)
		return 1
	}
	defer rp.close()
	start := time.Now()
	ref := make([]replayed, len(sched))
	for i, s := range sched {
		if ref[i], err = rp.replay(i, s.tx, res.baseUS+s.at.Microseconds()); err != nil {
			res.problemf("replay of transmission %d: %v", i, err)
		}
	}
	logf("in-process replay of %d transmissions took %.1fs", len(sched), time.Since(start).Seconds())

	measured := func(i int) bool { return i >= 0 && i < len(sched) && sched[i].at >= warmup }
	out := check(w, sched, res, ref, measured)
	if *trace == 1 {
		out.Metrics = perLayer(w, sched, res, rp, ref, measured, logf)
		path := filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, rp.tr.spans); err != nil {
			logf("write trace: %v", err)
			return 1
		}
		logf("%d spans written to %s", len(rp.tr.spans), path)
	}
	for _, p := range res.problems {
		logf("check failed: %s", p)
	}
	out.Correct = len(res.problems) == 0
	b, err := json.Marshal(out)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check runs every correctness check of a timed run and computes the
// end-to-end metrics over the measured phase.
func check(w workload, sched []send, res *served, ref []replayed, measured func(int) bool) result {
	tb := testbed.New()
	out := result{Attempted: len(sched)}
	var m2 *cluster.ShardMap
	if w.shards > 0 {
		var err error
		if m2, err = cluster.NewShardMap(2, w.shards, 0); err != nil {
			res.problemf("shard map: %v", err)
		}
	}
	var lat, errs []float64
	winLat := make([][]float64, len(res.cpu)-1) // per measured window
	var frames, captures int
	bad := map[string]int{}
	// The reference replays each client's fixes one after another. When
	// a stall backs a client's jobs up, the server may run two of them
	// at once, and from then on its track (and so its track-guided
	// fixes) depends on timing: that client's later fixes are not
	// compared. prevFix is each client's previous fix line.
	prevFix := map[uint32]time.Time{}
	overlapped := map[uint32]bool{}
	unverified := 0
	for i, s := range sched {
		frames += s.tx.Frames
		captures += s.tx.Captures
		fixes := res.fixes[i]
		ok := true
		fail := func(kind string) {
			bad[kind]++
			ok = false
		}
		switch {
		case len(fixes) != 1:
			fail(fmt.Sprintf("%d fixes for one transmission", len(fixes)))
		case ref[i].flushes != 1:
			fail("in-process grouping did not flush exactly once")
		default:
			f := fixes[0]
			if f.aps != 6 {
				fail("fix not from all 6 APs")
			}
			id := s.tx.Client
			if last, ok := prevFix[id]; ok && last.After(res.origin.Add(s.at+res.late[i])) {
				overlapped[id] = true
			}
			prevFix[id] = f.at
			switch {
			case overlapped[id]:
				unverified++
			case f.pos != ref[i].pos.String():
				fail("served fix differs from the in-process engine")
			}
			const eps = 0.0005 // half the printed precision
			if f.x < tb.Plan.Min.X-eps || f.x > tb.Plan.Max.X+eps || f.y < tb.Plan.Min.Y-eps || f.y > tb.Plan.Max.Y+eps {
				fail("fix outside the floor")
			}
			if b := s.tx.Box; !b.IsZero() && (f.x < b.Min.X-eps || f.x > b.Max.X+eps || f.y < b.Min.Y-eps || f.y > b.Max.Y+eps) {
				fail("region fix outside its box")
			}
			if m2 != nil {
				shard := res.shardOf[i][0]
				switch {
				case s.at < res.rebStart && shard != 0:
					fail("fix before the rebalance not from shard 0")
				case s.at > res.rebEnd && shard != m2.Owner(s.tx.Client):
					fail("fix after the rebalance not from the owning shard")
				}
			}
			if measured(i) {
				l := f.at.Sub(res.origin.Add(s.at))
				lat = append(lat, ms(l))
				j := int((s.at - warmup) / window)
				winLat[j] = append(winLat[j], ms(l))
				errs = append(errs, math.Hypot(f.x-s.tx.Truth.X, f.y-s.tx.Truth.Y)*100)
				if l > maxLateness {
					fail("fix later than the backlog bound (rate not sustained)")
				}
			}
		}
		if !ok {
			out.Failed++
		}
	}
	if unverified > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %d fixes of %d clients not compared with the reference: a previous fix of the client was still in flight when they were sent\n",
			unverified, len(overlapped))
	}
	kinds := make([]string, 0, len(bad))
	for k := range bad {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		res.problemf("%d transmissions: %s", bad[k], k)
	}
	if got := res.end["arraytrack_jobs_submitted_total"]; int(got) != len(sched) {
		res.problemf("jobs submitted %v != transmissions %d", got, len(sched))
	}
	if got := res.end["arraytrack_fixes_total"]; int(got) != len(sched) {
		res.problemf("fixes_total %v != transmissions %d", got, len(sched))
	}
	if res.leased != 0 {
		res.problemf("%v ingest workspaces still leased after drain", res.leased)
	}
	if m2 != nil {
		if int(res.router.Frames) != frames || int(res.router.Routed) != captures {
			res.problemf("router decoded %d frames / routed %d captures, sent %d / %d",
				res.router.Frames, res.router.Routed, frames, captures)
		}
		if res.router.Rebalances != 1 {
			res.problemf("router completed %d rebalances, want 1", res.router.Rebalances)
		}
	}
	if len(lat) == 0 {
		res.problemf("no measured fixes")
		return out
	}
	errP50 := quantile(errs, 0.5)
	if errP50 > errBoundCM {
		res.problemf("err_p50_cm %.1f above the %d cm accuracy bound", errP50, errBoundCM)
	}
	var late []float64
	for i, l := range res.late {
		if measured(i) {
			late = append(late, ms(l))
		}
	}
	// Per window: latency quantiles and server CPU per fix.
	var p50s, p90s, cpus []float64
	for j, l := range winLat {
		if len(l) == 0 {
			continue
		}
		p50s = append(p50s, quantile(l, 0.5))
		p90s = append(p90s, quantile(l, 0.9))
		cpus = append(cpus, ms(res.cpu[j+1]-res.cpu[j])/float64(len(l)))
	}
	cpuTotal := res.cpu[len(res.cpu)-1] - res.cpu[0]
	fmt.Fprintf(os.Stderr, "e2ebench: %s: %d measured fixes, latency p50 %.2f p90 %.2f p99 %.2f max %.2f ms (window medians: p50 %.2f p90 %.2f); generator late p50 %.3f p90 %.3f max %.3f ms; CPU %.2fs (%.3f ms/fix)\n",
		w.name, len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 1),
		quantile(p50s, 0.5), quantile(p90s, 0.5),
		quantile(late, 0.5), quantile(late, 0.9), quantile(late, 1), cpuTotal.Seconds(), ms(cpuTotal)/float64(len(lat)))
	out.Metrics = map[string]metric{
		"setup_s":        {res.setup.Seconds(), "s"},
		"fix_p50_ms":     {quantile(p50s, 0.5), "ms"},
		"cpu_ms_per_fix": {quantile(cpus, 0.5), "ms"},
		"rss_peak_mb":    {float64(res.rss) / (1 << 20), "MiB"},
		"err_p50_cm":     {errP50, "cm"},
	}
	return out
}

// perLayer computes the per-layer metrics: span totals of the traced
// replay and counter deltas the servers exported over the measured
// phase.
func perLayer(w workload, sched []send, res *served, rp *replayer, ref []replayed, measured func(int) bool, logf func(string, ...any)) map[string]metric {
	tot := layerTotals(rp.tr.spans, measured)
	var fixes, captures, frames, wire float64
	for i := range sched {
		if measured(i) {
			fixes++
			captures += float64(ref[i].captures)
			frames += float64(ref[i].frames)
			wire += float64(ref[i].bytes)
		}
	}
	per := func(name string, unit time.Duration, n float64) float64 {
		return float64(tot[name]) / float64(unit) / n
	}
	d := func(key string) float64 { return res.end[key] - res.start[key] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var late []float64
	for i, l := range res.late {
		if measured(i) {
			late = append(late, ms(l))
		}
	}
	fallbacks := 0.0
	for _, reason := range []string{"no_track", "border", "gate", "error"} {
		fallbacks += d(`arraytrack_predict_fallback_total{reason="` + reason + `"}`)
	}
	parts := tot[spanSpectrum] + tot[spanCombine] + tot[spanSynth] + tot[spanTrack]
	logf("traced: stage spans sum to %.3f of engine.Locate (%.3f vs %.3f ms per fix)",
		float64(parts)/float64(tot[spanLocate]), per(spanStages, time.Millisecond, fixes), per(spanLocate, time.Millisecond, fixes))
	return map[string]metric{
		"server.decode_us":           {per(spanDecode, time.Microsecond, captures), "us/capture"},
		"server.group_us":            {per(spanGroup, time.Microsecond, fixes), "us"},
		"server.wire_kb":             {wire / 1024 / fixes, "KiB"},
		"cluster.route_us":           {per(spanRoute, time.Microsecond, frames), "us/frame"},
		"core.spectrum_ms":           {per(spanSpectrum, time.Millisecond, fixes), "ms"},
		"core.combine_ms":            {per(spanCombine, time.Millisecond, fixes), "ms"},
		"core.synth_ms":              {per(spanSynth, time.Millisecond, fixes), "ms"},
		"core.synth_cache_hit_ratio": {ratio(d("arraytrack_synth_cache_hits_total")+d("arraytrack_synth_cache_slices_total"), d("arraytrack_synth_cache_hits_total")+d("arraytrack_synth_cache_misses_total")), "ratio"},
		"core.synth_cache_mb":        {res.end["arraytrack_synth_cache_bytes"] / (1 << 20), "MiB"},
		"music.steering_hit_ratio":   {ratio(d("arraytrack_steering_cache_hits_total"), d("arraytrack_steering_cache_hits_total")+d("arraytrack_steering_cache_misses_total")), "ratio"},
		"engine.fix_ms":              {per(spanLocate, time.Millisecond, fixes), "ms"},
		"engine.track_us":            {per(spanTrack, time.Microsecond, fixes), "us"},
		"engine.predicted_ratio":     {ratio(d("arraytrack_predicted_fixes_total"), d("arraytrack_fixes_total")), "ratio"},
		"engine.fallbacks":           {fallbacks, "count"},
		"loadgen.late_ms_p90":        {quantile(late, 0.9), "ms"},
		"trace.fix_ms":               {per(spanFix, time.Millisecond, fixes), "ms"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}
