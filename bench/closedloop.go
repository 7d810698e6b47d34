package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wal"
)

// closedLoop runs the product's own loop: internal/sim replays the churn
// script on a journaled network while Clients clients are served from each
// epoch's snapshot, their verdicts are ingested with trust, belief
// propagation re-runs on what they touched (pipelined behind serving) and the
// snapshot is republished. Then the journal is recovered.
func (r *run) closedLoop() error {
	// Set-up and cold start, repeated like the other workloads: generate the
	// scenario and build its initial network; the cold start runs on that
	// unjournaled twin, because RunWorkload folds its own into the first epoch.
	var setups []time.Duration
	var colds coldTimes
	for rep := 0; rep < r.sz.Repeats; rep++ {
		var twin *sim.Simulation
		var err error
		setups = append(setups, r.timed("bench.setup", func() {
			var sc sim.Scenario
			if sc, err = r.sz.scenario(); err == nil {
				twin, err = sim.New(sc)
			}
		}))
		if err != nil {
			return err
		}
		cs, err := r.coldStart(viewOf(twin))
		if err != nil {
			return err
		}
		colds.add(cs)
		r.attempted++
		if prev, ok := r.digests["twin_snapshot"]; ok && prev != cs.snap.Digest() {
			r.failf("repeat %d: twin snapshot digest differs from the first repeat's", rep)
		}
		r.digests["twin_snapshot"] = cs.snap.Digest()
		if rep == r.sz.Repeats-1 {
			cs.report(r)
		}
	}
	r.v["setup_s"], r.samples["setup_s"] = median(seconds(setups)), len(setups)
	colds.report(r)

	// The loop itself runs Loops times, each on a fresh journaled network;
	// the end-to-end metrics are the medians and every loop must digest alike.
	sc, err := r.sz.scenario()
	if err != nil {
		return err
	}
	w := sim.Workload{
		Seed: r.seed, Clients: r.sz.Clients, QueriesPerEpoch: r.sz.QueriesPerEpoch,
		Hot: r.sz.HotShare, HotKeys: r.sz.HotOrigins, CacheSize: r.sz.CacheSize,
		Records: r.sz.Records, Vocab: r.sz.Vocab,
		Feedback: true, FeedbackRate: r.sz.FeedbackRate, FeedbackNoise: r.sz.FeedbackNoise,
		FeedbackMaxRounds: r.sz.RefreshRounds, Pipeline: true,
	}
	loops := r.sz.Loops
	if r.tr != nil {
		loops = 1
	}
	var (
		s                          *sim.Simulation
		res                        *sim.WorkloadResult
		perf                       *sim.WorkloadPerf
		build                      time.Duration
		allocs                     uint64
		rates, p50s, p99s, barrier []float64
	)
	for loop := 0; loop < loops; loop++ {
		if r.lg != nil {
			if err := r.lg.Close(); err != nil {
				return err
			}
		}
		s, res, perf = nil, nil, nil
		r.settle()
		if r.lg, r.st, err = openLog(filepath.Join(r.dir, fmt.Sprintf("wal-%d", loop)), wal.SyncGroup); err != nil {
			return err
		}
		build = r.timed("sim.build", func() { s, err = sim.NewDurable(sc, r.lg) })
		if err != nil {
			return err
		}
		r.timeJournal(s.Network())
		m0 := mallocs()
		r.timed("sim.run_workload", func() { res, perf, err = s.RunWorkload(w, nil) })
		if err != nil {
			return err
		}
		allocs = mallocs() - m0
		if err := s.Network().JournalError(); err != nil {
			return err
		}
		if res.FinalRefresh == nil {
			return fmt.Errorf("a pipelined run must end with a final refresh")
		}
		r.attempted += len(sc.Epochs) * r.sz.QueriesPerEpoch
		r.failed += len(sc.Epochs)*r.sz.QueriesPerEpoch - res.TotalServed
		for _, ep := range res.Epochs {
			if ep.Errors != 0 {
				r.failf("loop %d epoch %d: %d serving errors", loop, ep.Epoch, ep.Errors)
			}
		}
		if prev, ok := r.digests["workload"]; ok && prev != res.Digest {
			r.failf("loop %d: workload digest %s differs from the first loop's %s", loop, res.Digest, prev)
		}
		r.digests["workload"] = res.Digest
		if prev, ok := r.counters["redetect_msg_updates"]; ok && prev != int64(perf.Work.MessageUpdates) {
			r.failf("loop %d: %d re-detection message updates, the first loop made %d", loop, perf.Work.MessageUpdates, prev)
		}
		r.counters["redetect_msg_updates"] = int64(perf.Work.MessageUpdates)
		rates = append(rates, float64(res.TotalServed)/perf.Elapsed.Seconds())
		p50s = append(p50s, micros(perf.P50))
		p99s = append(p99s, micros(perf.P99))
		barrier = append(barrier, (perf.Elapsed - perf.ServeElapsed).Seconds())
	}

	// The final network answers like an outside replay says it should, and
	// comes back from the journal as it is. RunWorkload cannot be seen into
	// from outside, so a traced run measures the serve and refresh layers
	// once more on the network it leaves behind.
	r.ov = viewOf(s)
	r.srv = serve.New(r.ov.net, serve.Options{CacheSize: r.sz.CacheSize})
	r.streams = r.ov.genStreams(r.sz, r.seed, r.sz.PassAnswers)
	if err := r.verifySamples(); err != nil {
		return err
	}
	if r.tr != nil {
		// Each pass gets a cold server of its own, so both see the same
		// misses on first touch and hits after.
		r.srv = serve.New(r.ov.net, serve.Options{CacheSize: r.sz.CacheSize})
		untraced := r.pass(make([]hist, 1))
		r.srv = serve.New(r.ov.net, serve.Options{CacheSize: r.sz.CacheSize})
		traced := r.tracedPass(r.streams[0], false)
		r.v["trace_overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
		r.hitAllocs()
		if err := r.refresh(); err != nil {
			return err
		}
	}
	if err := r.recover(); err != nil {
		return err
	}

	// What RunWorkload itself reported goes in last: where a probe above
	// measured the same name on the final network, the loop's own number wins.
	var hits, computed, revalidated, stale, deltaEdges int
	for _, ep := range res.Epochs {
		hits += ep.CacheHits
		computed += ep.Computed
		revalidated += ep.Revalidated
		stale += ep.StaleReads
		if ep.Feedback != nil {
			deltaEdges += ep.Feedback.DeltaEdges
		}
	}
	served := len(rates) * res.TotalServed
	r.v["answers_per_s"], r.samples["answers_per_s"] = median(rates), len(rates)
	r.v["answer_p50_us"], r.samples["answer_p50_us"] = median(p50s), served
	r.v["serve.answer_p99_us"] = median(p99s)
	r.v["barrier_s"], r.samples["barrier_s"] = median(barrier), len(barrier)
	// The error of the posteriors the loop ends on, by internal/sim's own
	// ground truth: what detection and every refresh together got right.
	r.v["posterior_error"] = res.FinalRefresh.ErrAfter

	wait := perf.Elapsed - perf.ServeElapsed
	r.v["sim.build_s"] = build.Seconds()
	r.v["sim.serve_s"] = perf.ServeElapsed.Seconds()
	r.v["sim.feedback_wait_s"] = perf.FeedbackWait.Seconds()
	r.v["sim.advance_s"] = (wait - perf.FeedbackWait).Seconds()
	r.v["runtime.allocs_per_answer"] = float64(allocs) / float64(max(res.TotalServed, 1))
	r.v["serve.hit_ratio"] = float64(hits) / float64(max(res.TotalServed, 1))
	r.v["serve.computed"] = float64(computed)
	r.v["serve.revalidated"] = float64(revalidated)
	r.v["serve.stale_epoch_reads"] = float64(stale)
	r.v["core.redetect_msg_updates"] = float64(perf.Work.MessageUpdates)
	r.v["core.redetect_components"] = float64(perf.Work.Components)
	r.v["core.publish_delta_edges"] = float64(deltaEdges)

	r.counters["served"] = int64(res.TotalServed)
	r.counters["cache_hits"] = int64(hits)
	r.counters["computed"] = int64(computed)
	r.counters["revalidated"] = int64(revalidated)
	r.counters["redetect_msg_updates"] = int64(perf.Work.MessageUpdates)
	r.counters["redetect_components"] = int64(perf.Work.Components)
	r.counters["publish_delta_edges"] = int64(deltaEdges)
	return nil
}
