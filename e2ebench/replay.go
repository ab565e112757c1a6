package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/server"
	"repro/internal/testbed"
)

// The replay feeds a run's exact bytes — same transmissions, same
// stamps, same per-client order — through the layers' public entry
// points in this process, one fix at a time. Untraced, it is the
// reference every served fix must equal; traced, it records one span
// per layer call and yields the per-layer metrics.

// span is one traced layer call. Times are ns from the replay's start;
// Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Fix    int    `json:"fix"`
}

// spanNames are the traced layer boundaries.
const (
	spanFix      = "trace.fix"     // decode + group + engine.Locate of one transmission
	spanDecode   = "server.decode" // server.ReadFrameInto, one wire frame
	spanGroup    = "server.group"  // Backend.IngestBatch, one wire frame
	spanLocate   = "engine.fix"    // engine.Engine.Locate
	spanStages   = "stages"        // the same fix through the pipeline's stage entry points
	spanSpectrum = "core.spectrum" // Pipeline.FrameSpectrum, one frame
	spanCombine  = "core.combine"  // Pipeline.CombineAP, one AP
	spanSynth    = "core.synth"    // Pipeline.SynthesizeRegion / SynthesizeRegionInterior
	spanTrack    = "engine.track"  // Tracker.Predict or Tracker.ObserveFix
	spanRoute    = "cluster.route" // cluster.Router.Route, one wire frame
)

type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	fix   int
}

// begin opens a span and returns its index (or -1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Fix: t.fix})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// recorder is the replay's server.Dispatcher: it keeps every quorum
// flush for the replay to localize.
type recorder struct {
	flushes []flush
}

type flush struct {
	client uint32
	caps   []server.Capture
}

func (r *recorder) Dispatch(clientID uint32, caps []server.Capture) {
	r.flushes = append(r.flushes, flush{clientID, caps})
}

// replayer holds the in-process stack: the server's grouping backend,
// an engine with one worker and the server's options, and — traced —
// a second tracker for the stage-by-stage replay plus a router writing
// to nowhere.
type replayer struct {
	tb       *testbed.Testbed
	aps      map[uint32]*core.AP
	rec      *recorder
	backend  *server.Backend
	eng      *engine.Engine
	clock    atomic.Int64 // the capture clock both trackers run on
	stageTr  *engine.Tracker
	batchCfg core.Config
	prioCfg  core.Config
	router   *cluster.Router
	tr       tracer
}

// trackTTL mirrors arraytrack-server's -track-ttl default.
const trackTTL = 30 * time.Second

func newReplayer(w workload, traced bool) (*replayer, error) {
	tb := testbed.New()
	capOpt := testbed.DefaultCaptureOptions()
	r := &replayer{tb: tb, aps: map[uint32]*core.AP{}, rec: &recorder{}, tr: tracer{on: traced, t0: time.Now()}}
	for i, s := range tb.Sites {
		r.aps[uint32(i+1)] = &core.AP{Array: tb.NewArray(s, capOpt)}
	}
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.Estimator = music.MUSICEstimator
	trOpt := engine.TrackerOptions{TTL: trackTTL, Now: func() time.Time { return time.Unix(0, r.clock.Load()) }}
	r.eng = engine.New(engine.Options{
		Workers:     1,
		Config:      cfg,
		Tracker:     engine.NewTracker(trOpt),
		ClientQuota: 16,
		Predict:     true,
	})
	r.backend = server.NewBackendDispatcher(w.quorum, time.Second, r.rec)
	// The engine runs batch jobs with per-AP and surface fan-out
	// clamped to one goroutine, priority jobs with the surface sharded.
	r.batchCfg, r.prioCfg = cfg, cfg
	r.batchCfg.APWorkers, r.batchCfg.SynthWorkers = 1, 1
	r.prioCfg.APWorkers = 1
	if traced {
		r.stageTr = engine.NewTracker(trOpt)
		n := max(w.shards, 1)
		m, err := cluster.NewShardMap(1, n, 0)
		if err != nil {
			return nil, err
		}
		sh := make([]cluster.Shard, n)
		for i := range sh {
			sh[i] = cluster.Shard{Data: io.Discard}
		}
		if r.router, err = cluster.NewRouter(m, sh); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replayer) close() { r.eng.Close() }

// replayed is the in-process outcome for one transmission.
type replayed struct {
	pos      geom.Point
	flushes  int
	captures int
	frames   int
	bytes    int
}

// replay runs one stamped transmission through decode, grouping and
// the engine (and, traced, through the pipeline stages and the router).
func (r *replayer) replay(fixNo int, tx *transmission, stampUS int64) (replayed, error) {
	r.tr.fix = fixNo
	tx.stamp(stampUS)
	r.clock.Store(stampUS * 1000)
	out := replayed{captures: tx.Captures, frames: tx.Frames, bytes: len(tx.Wire)}
	root := r.tr.begin(spanFix, -1)
	rd := bytes.NewReader(tx.Wire)
	for rd.Len() > 0 {
		ws := server.GetIngestWorkspace()
		d := r.tr.begin(spanDecode, root)
		caps, err := server.ReadFrameInto(rd, ws)
		r.tr.end(d)
		if err != nil {
			ws.Discard()
			return out, fmt.Errorf("decode: %w", err)
		}
		g := r.tr.begin(spanGroup, root)
		r.backend.IngestBatch(caps)
		r.tr.end(g)
	}
	out.flushes = len(r.rec.flushes)
	if out.flushes != 1 {
		for _, f := range r.rec.flushes {
			server.ReleaseAll(f.caps)
		}
		r.rec.flushes = r.rec.flushes[:0]
		r.tr.end(root)
		return out, nil
	}
	f := r.rec.flushes[0]
	r.rec.flushes = r.rec.flushes[:0]
	defer server.ReleaseAll(f.caps)
	req := r.request(f)
	l := r.tr.begin(spanLocate, root)
	res := r.eng.Locate(req)
	r.tr.end(l)
	r.tr.end(root)
	if res.Err != nil {
		return out, fmt.Errorf("engine: %w", res.Err)
	}
	out.pos = res.Pos
	if !r.tr.on {
		return out, nil
	}
	pos, err := r.stages(req)
	if err != nil {
		return out, fmt.Errorf("stages: %w", err)
	}
	if pos != res.Pos {
		return out, fmt.Errorf("stage replay %v differs from engine.Locate %v", pos, res.Pos)
	}
	return out, r.route(tx)
}

// request builds the engine job a quorum flush becomes, as
// engine.CaptureSink does: frames grouped per AP in first-seen order,
// the newest capture stamp, the newest region, any priority flag.
func (r *replayer) request(f flush) engine.Request {
	var order []uint32
	byAP := map[uint32][]core.FrameCapture{}
	req := engine.Request{ClientID: f.client, Min: r.tb.Plan.Min, Max: r.tb.Plan.Max}
	var regionAt time.Time
	for _, c := range f.caps {
		if _, ok := byAP[c.APID]; !ok {
			order = append(order, c.APID)
		}
		byAP[c.APID] = append(byAP[c.APID], core.FrameCapture{Streams: c.Streams})
		req.Priority = req.Priority || c.Priority
		if c.Timestamp.After(req.Time) {
			req.Time = c.Timestamp
		}
		if !c.Region.IsZero() && (regionAt.IsZero() || c.Timestamp.After(regionAt)) {
			req.Region, regionAt = c.Region, c.Timestamp
		}
	}
	for _, id := range order {
		req.APs = append(req.APs, r.aps[id])
		req.Captures = append(req.Captures, byAP[id])
	}
	return req
}

// stages runs one request through the pipeline's stage entry points
// exactly as the engine's worker does — per-AP frame spectra and
// combine, the track-guided region with its verification, full-area
// fallback, tracker update — with a span around each call.
func (r *replayer) stages(req engine.Request) (geom.Point, error) {
	root := r.tr.begin(spanStages, -1)
	defer r.tr.end(root)
	cfg := r.batchCfg
	if req.Priority {
		cfg = r.prioCfg
	}
	p := core.NewPipeline(cfg)
	ws := cfg.Workspaces.Get()
	defer cfg.Workspaces.Put(ws)
	specs := make([]core.APSpectrum, 0, len(req.APs))
	for i, ap := range req.APs {
		frames := req.Captures[i]
		spectra := make([]*music.Spectrum, 0, len(frames))
		for _, fr := range frames {
			s := r.tr.begin(spanSpectrum, root)
			spec, err := p.FrameSpectrum(ws, ap, fr)
			r.tr.end(s)
			if err != nil {
				return geom.Point{}, err
			}
			spectra = append(spectra, spec)
		}
		c := r.tr.begin(spanCombine, root)
		out, err := p.CombineAP(ws, ap, frames, spectra)
		r.tr.end(c)
		if err != nil {
			return geom.Point{}, err
		}
		specs = append(specs, core.APSpectrum{Pos: ap.Array.Pos, Spectrum: out})
	}
	var pos geom.Point
	verified := false
	if req.Region.IsZero() {
		t := r.tr.begin(spanTrack, root)
		pred, ok := r.stageTr.Predict(req.ClientID, req.Time, engine.DefaultPredictMinFixes)
		r.tr.end(t)
		if ok {
			region := engine.PredictRegion(pred, r.eng.PredictSigma(), cfg.GridCell)
			s := r.tr.begin(spanSynth, root)
			got, interior, err := p.SynthesizeRegionInterior(specs, req.Min, req.Max, region)
			r.tr.end(s)
			if err == nil && interior && pred.Accepts(got) {
				pos, verified = got, true
			}
		}
	}
	if !verified {
		s := r.tr.begin(spanSynth, root)
		got, err := p.SynthesizeRegion(specs, req.Min, req.Max, req.Region)
		r.tr.end(s)
		if err != nil {
			return geom.Point{}, err
		}
		pos = got
	}
	t := r.tr.begin(spanTrack, root)
	r.stageTr.ObserveFix(req.ClientID, pos, req.Time, req.Degraded)
	r.tr.end(t)
	return pos, nil
}

// route decodes the transmission again and times the router's
// partition and re-encode of each wire frame.
func (r *replayer) route(tx *transmission) error {
	rd := bytes.NewReader(tx.Wire)
	for rd.Len() > 0 {
		ws := server.GetIngestWorkspace()
		caps, err := server.ReadFrameInto(rd, ws)
		if err != nil {
			ws.Discard()
			return err
		}
		s := r.tr.begin(spanRoute, -1)
		err = r.router.Route(caps)
		r.tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSpans saves the trace as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerTotals sums span durations by name over the given fixes.
func layerTotals(spans []span, inFix func(int) bool) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		if inFix(s.Fix) {
			out[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return out
}
