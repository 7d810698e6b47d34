package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wal"
)

// run is the state of one workload run. Phases add what they measure to v
// under the metric's manifest name; finish keeps the names the manifest lists
// for the run's mode. Counters and digests depend only on (workload, seed,
// sizes): -compare requires two runs that agree on those to agree on them.
type run struct {
	sz   sizes
	seed int64
	tr   *tracer // nil unless the run is traced
	dir  string  // this run's scratch directory under buildDir

	ov      *overlay
	streams []stream
	srv     *serve.Server
	lg      *wal.Log
	st      *wal.DirStorage
	walHist hist // journal append latency, traced runs only

	v         map[string]float64
	samples   map[string]int
	counters  map[string]int64
	digests   map[string]string
	failures  []string
	attempted int
	failed    int
}

// failf records a failed correctness check; the run goes on so the report
// shows everything that is wrong, and ends incorrect.
func (r *run) failf(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// timed runs f under a span and returns how long it took.
func (r *run) timed(name string, f func()) time.Duration {
	id := r.tr.begin(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.tr.end(id)
	return d
}

// settle collects garbage before a short timed phase, as the testing package
// does before a benchmark: whether the previous phase's garbage is collected
// inside this phase or not would otherwise be a coin toss worth 10% of a
// 0.2 s measurement.
func (r *run) settle() {
	id := r.tr.begin("bench.settle")
	runtime.GC()
	r.tr.end(id)
}

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// openLog opens a fresh journal in dir.
func openLog(dir string, policy wal.SyncPolicy) (*wal.Log, *wal.DirStorage, error) {
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		return nil, nil, err
	}
	lg, err := wal.Open(st, wal.Options{Sync: policy, CheckpointEvery: -1})
	return lg, st, err
}

// timedJournal measures every append on its way to the log.
type timedJournal struct {
	inner core.Journal
	h     *hist
}

func (j timedJournal) Append(m core.Mutation) error {
	t0 := time.Now()
	err := j.inner.Append(m)
	j.h.record(time.Since(t0))
	return err
}

// timeJournal routes a traced run's appends through a timedJournal.
func (r *run) timeJournal(n *core.Network) {
	if r.tr != nil {
		n.AttachWAL(timedJournal{r.lg, &r.walHist})
	}
}

// lifecycle is the shape serve_hot, serve_cold and detect_scratch share; the
// sizes decide which phase dominates. Every phase is timed on its own, so a
// metric never includes another phase's work.
func (r *run) lifecycle() error {
	for _, n := range []string{"sim.build_s", "sim.serve_s", "sim.feedback_wait_s", "sim.advance_s"} {
		r.v[n] = 0 // internal/sim runs on closed_loop only
	}
	if err := r.setupAndColdStart(); err != nil {
		return err
	}
	r.srv = serve.New(r.ov.net, serve.Options{CacheSize: r.sz.CacheSize})
	if err := r.servePasses(); err != nil {
		return err
	}
	if err := r.verifySamples(); err != nil {
		return err
	}
	if err := r.refresh(); err != nil {
		return err
	}
	return r.recover()
}

// setupAndColdStart repeats set-up (generate the scenario, the stores and the
// key streams; build the scenario's journaled network) and the cold start
// (Discover, RunDetection, PublishSnapshot: the time from a cold network to
// the first routable snapshot), each repeat on a fresh network, and keeps the
// last. The same seed must give the same inference state and snapshot.
func (r *run) setupAndColdStart() error {
	var setups []time.Duration
	var colds coldTimes
	var cs coldStart
	for rep := 0; rep < r.sz.Repeats; rep++ {
		if r.lg != nil {
			if err := r.lg.Close(); err != nil {
				return err
			}
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("wal-%d", rep))
		var err error
		// Drop the previous repeat before collecting, or the peak resident
		// set depends on whether its garbage outlives this repeat's set-up.
		r.ov, r.streams, cs = nil, nil, coldStart{}
		r.settle()
		setups = append(setups, r.timed("bench.setup", func() {
			// The journal never fsyncs here: an fsync per group of appends
			// would make set-up a disk benchmark. recover syncs once.
			if r.lg, r.st, err = openLog(dir, wal.SyncOff); err != nil {
				return
			}
			var sc sim.Scenario
			if sc, err = r.sz.scenario(); err != nil {
				return
			}
			var s *sim.Simulation
			if s, err = sim.NewDurable(sc, r.lg); err != nil {
				return
			}
			r.timeJournal(s.Network())
			r.ov = viewOf(s)
			if err = r.ov.attachStores(r.sz, r.seed); err != nil {
				return
			}
			r.streams = r.ov.genStreams(r.sz, r.seed, r.sz.PassAnswers)
			err = r.ov.net.JournalError()
		}))
		if err != nil {
			return err
		}
		if cs, err = r.coldStart(r.ov); err != nil {
			return err
		}
		colds.add(cs)
		r.attempted++
		for k, v := range map[string]string{
			"inference": wal.DigestNetwork(r.ov.net),
			"snapshot":  cs.snap.Digest(),
		} {
			if prev, ok := r.digests[k]; ok && prev != v {
				r.failf("repeat %d: %s digest %s differs from the first repeat's %s", rep, k, v, prev)
			}
			r.digests[k] = v
		}
	}
	r.v["setup_s"], r.samples["setup_s"] = median(seconds(setups)), len(setups)
	colds.report(r)
	cs.report(r)
	// The error of the cold start's posteriors. The overlay is pinned, so it
	// is the same for every seed: any change of it is a change of detection.
	r.v["posterior_error"] = r.ov.posteriorError(cs.det)
	return nil
}

// coldStart is one Discover → RunDetection → PublishSnapshot on a network
// that has no evidence yet: the time from a cold network to the first
// routable snapshot.
type coldStart struct {
	discover, detect, publish time.Duration
	rep                       core.DiscoveryReport
	det                       core.DetectResult
	snap                      *core.RoutingSnapshot
	detectMallocs             uint64
	edges                     int
}

func (r *run) coldStart(ov *overlay) (coldStart, error) {
	var (
		rep  core.DiscoveryReport
		det  core.DetectResult
		snap *core.RoutingSnapshot
		err  error
	)
	r.settle()
	id := r.tr.begin("bench.cold_start")
	defer r.tr.end(id)
	discover := r.timed("core.discover", func() {
		rep, err = ov.net.Discover(core.DiscoverConfig{Attrs: ov.attrs[:1], MaxLen: r.sz.MaxLen, Delta: r.sz.Delta})
	})
	if err != nil {
		return coldStart{}, err
	}
	m0 := mallocs()
	detect := r.timed("core.detect", func() {
		det, err = ov.net.RunDetection(core.DetectOptions{MaxRounds: r.sz.MaxRounds, Tolerance: 1e-9, Seed: r.seed})
	})
	detectMallocs := mallocs() - m0
	if err != nil {
		return coldStart{}, err
	}
	publish := r.timed("core.publish_full", func() {
		snap = ov.net.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: r.sz.Theta})
	})
	return coldStart{
		discover: discover, detect: detect, publish: publish,
		rep: rep, det: det, snap: snap, detectMallocs: detectMallocs, edges: len(ov.edges),
	}, nil
}

// report files the cold start's layer metrics and work counters.
func (cs coldStart) report(r *run) {
	rounds := float64(max(cs.det.Rounds, 1))
	r.v["core.discover_s"] = cs.discover.Seconds()
	r.v["core.discover_structures"] = float64(cs.rep.Structures)
	r.v["core.discover_us_per_structure"] = micros(cs.discover) / float64(max(cs.rep.Structures, 1))
	r.v["core.detect_s"] = cs.detect.Seconds()
	r.v["core.detect_rounds"] = float64(cs.det.Rounds)
	r.v["core.detect_converged"] = b2f(cs.det.Converged)
	r.v["core.detect_msg_updates"] = float64(cs.det.Work.MessageUpdates)
	r.v["core.detect_remote_msgs"] = float64(cs.det.RemoteMessages)
	r.v["core.detect_ns_per_peer_round"] = float64(cs.detect.Nanoseconds()) / (float64(r.sz.Peers) * rounds)
	r.v["core.detect_allocs_per_round"] = float64(cs.detectMallocs) / rounds
	r.v["core.publish_full_us_per_mapping"] = micros(cs.publish) / float64(max(cs.edges, 1))
	r.counters["discover_structures"] = int64(cs.rep.Structures)
	r.counters["detect_rounds"] = int64(cs.det.Rounds)
	r.counters["detect_msg_updates"] = int64(cs.det.Work.MessageUpdates)
	r.counters["detect_remote_msgs"] = int64(cs.det.RemoteMessages)
}

// coldTimes gathers the cold starts of a run's repeats. detect_s is the sum
// of the phases' medians: a slow spell of the box that hits discovery in one
// repeat and detection in the next spoils one sample of each phase, where it
// would spoil two of the repeats' totals.
type coldTimes struct {
	discover, detect, publish []time.Duration
}

func (c *coldTimes) add(cs coldStart) {
	c.discover = append(c.discover, cs.discover)
	c.detect = append(c.detect, cs.detect)
	c.publish = append(c.publish, cs.publish)
}

func (c *coldTimes) report(r *run) {
	r.v["detect_s"] = median(seconds(c.discover)) + median(seconds(c.detect)) + median(seconds(c.publish))
	r.samples["detect_s"] = len(c.discover)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// pass serves every client's stream once, closed loop: a client issues its
// next request when the previous one returns. It returns the elapsed time.
func (r *run) pass(hists []hist) time.Duration {
	errs := make([]int, len(r.streams))
	var wg sync.WaitGroup
	id := r.tr.begin("bench.pass")
	defer r.tr.end(id)
	t0 := time.Now()
	for c := range r.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, h := r.streams[c], &hists[c]
			for _, i := range s.idx {
				k := s.keys[i]
				t := time.Now()
				_, err := r.srv.Answer(k.origin, k.q)
				h.record(time.Since(t))
				if err != nil {
					errs[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	d := time.Since(t0)
	for c, s := range r.streams {
		r.attempted += len(s.idx)
		r.failed += errs[c]
	}
	return d
}

// servePasses measures the serving phase: one warm-up pass fills the cache,
// then Passes short passes replay the same streams. Each pass yields a rate
// and, from its own histograms, a p50 and a p99; the metrics are the medians
// over the passes. The box this was sized on halves its clock for 0.1–3 s at a
// time, a fifth of the time: a short pass is either inside such a burst or
// clear of it, and the median over many is clear of them, where one long pass
// or one merged histogram averages them in. A traced run serves one untraced
// and one traced pass instead (see tracedPass).
func (r *run) servePasses() error {
	n := 0
	for _, s := range r.streams {
		n += len(s.idx)
	}
	// Collect before the cache fills too, so that set-up garbage does not
	// sit under the cache's growth.
	r.settle()
	r.pass(make([]hist, len(r.streams)))
	r.settle()
	before := r.srv.Stats()
	passes := r.sz.Passes
	if r.tr != nil {
		passes = 1
	}
	var rates, p50s, p99s []float64
	var untraced time.Duration
	m0 := mallocs()
	for p := 0; p < passes; p++ {
		hists := make([]hist, len(r.streams))
		untraced = r.pass(hists)
		for i := range hists[1:] {
			hists[0].merge(&hists[i+1])
		}
		rates = append(rates, float64(n)/untraced.Seconds())
		p50s = append(p50s, hists[0].quantile(0.50)/1e3)
		p99s = append(p99s, hists[0].quantile(0.99)/1e3)
	}
	r.v["runtime.allocs_per_answer"] = float64(mallocs()-m0) / float64(passes*n)
	r.v["answers_per_s"], r.samples["answers_per_s"] = median(rates), passes
	r.v["answer_p50_us"], r.samples["answer_p50_us"] = median(p50s), passes*n
	r.v["serve.answer_p99_us"] = median(p99s)
	after := r.srv.Stats()
	// With more than one client, which of two racing requests for one key
	// computes and which coalesces is up to the scheduler: the counts are
	// reported, the exact ones come from the one-client traced run.
	r.v["serve.hit_ratio"] = float64(after.CacheHits-before.CacheHits) / float64(max(passes*n, 1))
	if r.tr != nil {
		traced := r.tracedPass(r.streams[0], false)
		r.v["trace_overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
		r.hitAllocs()
	}
	return nil
}

// tracedPass serves one stream on the calling goroutine with a span around
// every Answer call, classifies each call by the serve.Stats delta and, when
// judge is set, rates the answer like a user would. It returns the elapsed
// time and folds the classes into the run's serve metrics.
func (r *run) tracedPass(s stream, judge bool) time.Duration {
	var hit, miss, reval hist // with one client the serve.Stats delta around a call classifies it exactly
	var stale uint64
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eedfeedbac4))
	var enqueue time.Duration
	queued := r.srv.FeedbackStats().Queued
	t0 := time.Now()
	for _, i := range s.idx {
		k := s.keys[i]
		before := r.srv.Stats()
		id := r.tr.begin("serve.answer")
		ans, err := r.srv.Answer(k.origin, k.q)
		d := r.tr.end(id)
		after := r.srv.Stats()
		r.attempted++
		switch {
		case err != nil:
			r.failed++
		case after.CacheHits > before.CacheHits:
			hit.record(d)
		case after.Revalidated > before.Revalidated:
			reval.record(d)
		default:
			miss.record(d)
		}
		stale += after.StaleEpochReads - before.StaleEpochReads
		if judge && err == nil {
			enqueue += r.timed("serve.feedback_enqueue", func() { r.ov.judge(r.srv, ans, r.sz.FeedbackNoise, rng) })
		}
	}
	elapsed := time.Since(t0)
	if judge {
		n := r.srv.FeedbackStats().Queued - queued
		r.v["serve.feedback_enqueue_ns"] = float64(enqueue.Nanoseconds()) / float64(max(n, 1))
	}
	// Later passes overwrite earlier ones only where they saw the class, so
	// revalidations — which need a republication — come from the refresh
	// cycles and hits and misses from whichever pass ran last.
	class := func(name string, h *hist, scale float64) {
		if h.n > 0 {
			r.v[name] = h.mean() / scale
		} else if _, ok := r.v[name]; !ok {
			r.v[name] = 0 // no pass has seen the class yet
		}
	}
	class("serve.hit_ns", &hit, 1)
	class("serve.miss_us", &miss, 1e3)
	class("serve.revalidate_us", &reval, 1e3)
	if !judge {
		r.v["serve.hit_ratio"] = float64(hit.n) / float64(max(hit.n+miss.n+reval.n, 1))
		r.v["serve.computed"] = float64(miss.n)
	}
	r.v["serve.revalidated"] += float64(reval.n)
	r.v["serve.stale_epoch_reads"] += float64(stale)
	return elapsed
}

// hitAllocs counts allocations per cache hit: a key served once is served
// again at once, before any insert could evict it.
func (r *run) hitAllocs() {
	const n = 1000
	k := r.streams[0].keys[r.streams[0].idx[0]]
	if _, err := r.srv.Answer(k.origin, k.q); err != nil {
		r.failf("hit probe: %v", err)
	}
	before := r.srv.Stats()
	m0 := mallocs()
	for i := 0; i < n; i++ {
		if _, err := r.srv.Answer(k.origin, k.q); err != nil {
			r.failed++
		}
	}
	allocs := mallocs() - m0
	r.attempted += n + 1
	if hits := r.srv.Stats().CacheHits - before.CacheHits; hits != n {
		r.failf("hit probe: %d of %d repeats of one key hit", hits, n)
	}
	r.v["serve.hit_allocs"] = float64(allocs) / n
}

// verifySamples replays Samples keys of the stream outside the serve layer
// (route → rewrite → execute → canonical merge, through the exported
// functions) and requires the served answer to match byte for byte. In a
// traced run the same replay is the per-layer timing of the miss path.
func (r *run) verifySamples() error {
	snap := r.ov.net.Snapshot()
	s := r.streams[0]
	n := min(r.sz.Samples, len(s.idx))
	var sum replayWork
	for j := 0; j < n; j++ {
		k := s.keys[s.idx[j*len(s.idx)/n]]
		ans, err := r.srv.Answer(k.origin, k.q)
		r.attempted++
		if err != nil {
			r.failf("sample %d: %v", j, err)
			continue
		}
		id := r.tr.begin("bench.replay")
		want, w, err := replay(snap, k, r.tr)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("replaying sample %d: %w", j, err)
		}
		if got := serve.CanonicalBytes(ans.Records); !bytes.Equal(got, want) {
			r.failf("sample %d (%s %s): served %d bytes, the outside replay gives %d", j, k.origin, k.q, len(got), len(want))
		}
		sum.visits, sum.records = sum.visits+w.visits, sum.records+w.records
		sum.route, sum.rewrite = sum.route+w.route, sum.rewrite+w.rewrite
		sum.execute, sum.merge = sum.execute+w.execute, sum.merge+w.merge
	}
	r.counters["sample_visits"], r.counters["sample_records"] = int64(sum.visits), int64(sum.records)
	per := float64(max(n, 1))
	r.v["core.route_us"] = micros(sum.route) / per
	r.v["query.rewrite_us"] = micros(sum.rewrite) / per
	r.v["xmldb.execute_us"] = micros(sum.execute) / per
	r.v["serve.merge_us"] = micros(sum.merge) / per
	r.v["core.route_visits"] = float64(sum.visits) / per
	r.v["xmldb.records_per_answer"] = float64(sum.records) / per
	return nil
}

// refresh runs Refreshes feedback cycles: the owner serves RefreshAnswers
// answers and rates each like a user would, then the barrier — drain the
// verdict queue, ingest the observations, re-detect incrementally, publish
// the delta — is timed. barrier_s is how long routing state lags a change.
func (r *run) refresh() error {
	s := r.streams[0]
	rng := rand.New(rand.NewSource(r.seed ^ 0x0ddba11))
	var barriers []time.Duration
	epoch := r.ov.net.Snapshot().Epoch()
	at := 0
	for f := 0; f < r.sz.Refreshes; f++ {
		part := stream{s.keys, make([]uint32, 0, r.sz.RefreshAnswers)}
		for len(part.idx) < r.sz.RefreshAnswers {
			part.idx = append(part.idx, s.idx[at%len(s.idx)])
			at++
		}
		if r.tr != nil {
			r.tracedPass(part, true)
		} else {
			for _, i := range part.idx {
				k := s.keys[i]
				ans, err := r.srv.Answer(k.origin, k.q)
				r.attempted++
				if err != nil {
					r.failed++
					continue
				}
				r.ov.judge(r.srv, ans, r.sz.FeedbackNoise, rng)
			}
		}
		b, err := r.barrier()
		if err != nil {
			return fmt.Errorf("refresh %d: %w", f, err)
		}
		barriers = append(barriers, b)
		r.attempted++
		if got := r.ov.net.Snapshot().Epoch(); got != epoch+1 {
			r.failf("refresh %d published epoch %d, want %d", f, got, epoch+1)
		}
		epoch++
	}
	if len(barriers) > 0 {
		r.v["barrier_s"], r.samples["barrier_s"] = median(seconds(barriers)), len(barriers)
	}
	r.digests["refreshed"] = wal.DigestNetwork(r.ov.net)
	return nil
}

// barrier is the network owner's half of a feedback cycle. The layer metrics
// keep the last cycle's values; the counters sum over the cycles.
func (r *run) barrier() (time.Duration, error) {
	r.settle()
	id := r.tr.begin("bench.barrier")
	defer r.tr.end(id)
	t0 := time.Now()
	queued := r.srv.FeedbackStats().Pending
	var batch []core.QueryFeedback
	drain := r.timed("serve.drain", func() { batch = r.srv.DrainFeedback() })
	var err error
	ingest := r.timed("core.ingest", func() {
		_, err = r.ov.net.IngestFeedback(core.FeedbackOptions{Delta: r.sz.Delta, Noise: r.sz.FeedbackNoise}, batch...)
	})
	if err != nil {
		return 0, err
	}
	var det core.DetectResult
	redetect := r.timed("core.redetect", func() {
		det, err = r.ov.net.RunDetection(core.DetectOptions{Incremental: true, MaxRounds: r.sz.RefreshRounds, Tolerance: 1e-9, Seed: r.seed})
	})
	if err != nil {
		return 0, err
	}
	var snap *core.RoutingSnapshot
	publish := r.timed("core.publish_delta", func() {
		snap = r.ov.net.PublishSnapshot(det, core.SnapshotOptions{DefaultTheta: r.sz.Theta})
	})
	total := time.Since(t0)

	r.v["serve.drain_us"] = micros(drain)
	r.v["serve.feedback_queue_len"] = float64(queued)
	r.v["core.ingest_obs"] = float64(len(batch))
	r.v["core.ingest_us_per_obs"] = micros(ingest) / float64(max(len(batch), 1))
	r.v["core.redetect_s"] = redetect.Seconds()
	r.v["core.redetect_msg_updates"] = float64(det.Work.MessageUpdates)
	r.v["core.redetect_components"] = float64(det.Work.Components)
	r.v["core.redetect_touched_vars"] = float64(det.TouchedVars)
	r.v["core.publish_delta_us_per_mapping"] = micros(publish) / float64(max(len(r.ov.edges), 1))
	if d := snap.Delta(); d != nil {
		r.v["core.publish_delta_edges"] = float64(d.Size())
		r.counters["publish_delta_edges"] += int64(d.Size())
	} else {
		r.failf("a feedback republication on unchanged structure was not a delta")
	}
	r.counters["ingest_obs"] += int64(len(batch))
	r.counters["redetect_msg_updates"] += int64(det.Work.MessageUpdates)
	r.counters["redetect_touched_vars"] += int64(det.TouchedVars)
	return total, nil
}

// recover syncs the journal once, then reopens and replays it Recovers times:
// recover_s is how long a restart takes to get the network back. The
// recovered network must digest like the live one. A traced run then compacts
// the log into a checkpoint and recovers once more from that.
func (r *run) recover() error {
	var err error
	syncTime := r.timed("wal.sync", func() { err = r.lg.Sync() })
	if err != nil {
		return err
	}
	r.v["wal.sync_us"] = micros(syncTime)
	want := wal.DigestNetwork(r.ov.net)
	once := func() (wal.RecoverReport, time.Duration, error) {
		var rep wal.RecoverReport
		var rec *core.Network
		var err error
		r.settle()
		d := r.timed("wal.recover", func() {
			var lg *wal.Log
			if lg, err = wal.Open(r.st, wal.Options{CheckpointEvery: -1}); err != nil {
				return
			}
			defer lg.Close()
			rec, rep, err = lg.Recover()
		})
		r.attempted++
		if err != nil {
			return rep, d, err
		}
		if got := wal.DigestNetwork(rec); got != want {
			r.failf("recovered network digests %s, the live one %s", got, want)
		}
		return rep, d, nil
	}
	var times []time.Duration
	var rep wal.RecoverReport
	for i := 0; i < r.sz.Recovers; i++ {
		var d time.Duration
		if rep, d, err = once(); err != nil {
			return fmt.Errorf("recovery %d: %w", i, err)
		}
		times = append(times, d)
	}
	r.v["recover_s"], r.samples["recover_s"] = median(seconds(times)), len(times)
	r.v["wal.recover_log_records"] = float64(rep.LogRecords)
	r.counters["recover_log_records"] = int64(rep.LogRecords)

	if r.tr != nil {
		ck := r.timed("wal.checkpoint", func() { err = r.lg.Checkpoint(r.ov.net) })
		if err != nil {
			return err
		}
		r.v["wal.checkpoint_ms"] = micros(ck) / 1e3
		if rep, _, err = once(); err != nil {
			return fmt.Errorf("recovery from the checkpoint: %w", err)
		}
		r.v["wal.recover_ckpt_records"] = float64(rep.CheckpointRecords)
	}
	st := r.lg.Stats()
	r.v["wal.records"], r.v["wal.bytes"] = float64(st.Records), float64(st.Bytes)
	r.v["wal.syncs"], r.v["wal.checkpoints"] = float64(st.Syncs), float64(st.Checkpoints)
	if st.Records > 0 {
		r.v["wal.append_us"] = float64(st.AppendNs) / float64(st.Records) / 1e3
	}
	r.v["wal.append_p99_us"] = r.walHist.quantile(0.99) / 1e3
	r.counters["wal_records"] = int64(st.Records)
	return r.lg.Close()
}

// cleanup removes what the run wrote except its span file.
func (r *run) cleanup() {
	os.RemoveAll(r.dir)
}
