package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
)

// This file is the one epoch driver. Run and RunWorkload are thin wrappers
// over drive: a scenario replay is a workload with zero clients, so every
// scenario feature — routed bursts, flashcrowds, adversaries, the invariant
// suite and the scratch differential — runs the same way under serving.

// runState is what the driver carries from epoch to epoch. srv serves
// srvNet; an injected crash swaps s.net for the recovered network, and the
// server restarts against it with a cold result cache, like the real process
// it models.
type runState struct {
	w      Workload
	obs    Observer
	srv    *serve.Server
	srvNet *core.Network
	perf   WorkloadPerf
	lats   []time.Duration
}

// drive runs every epoch under the workload (already defaulted and checked)
// and returns the replay's and the serving plane's traces and the wall clock.
func (s *Simulation) drive(w Workload, obs Observer) ([]EpochTrace, *WorkloadResult, *WorkloadPerf, error) {
	r := &runState{w: w, obs: obs, srv: serve.New(s.net, serve.Options{CacheSize: w.CacheSize}), srvNet: s.net}
	res := &WorkloadResult{Name: s.sc.Name, Seed: w.Seed, Clients: w.Clients}
	var trs []EpochTrace
	digest := sha256.New()
	start := time.Now()
	for i := range s.sc.Epochs {
		tr, wtr, err := s.step(i, r)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sim: epoch %d: %w", i+1, err)
		}
		trs = append(trs, tr)
		res.Epochs = append(res.Epochs, wtr)
		res.TotalServed += wtr.Served
		res.TotalCacheHits += wtr.CacheHits
		res.Violations += len(wtr.Violations)
		digest.Write([]byte(wtr.Digest))
	}
	p := &r.perf
	if w.Pipeline {
		fbStart := time.Now()
		ft, err := s.finalDrain(w, r.srv)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("sim: final refresh: %w", err)
		}
		res.FinalRefresh = ft
		p.FeedbackWait += time.Since(fbStart)
		p.Work.Add(ft.Work)
	}
	res.Digest = hex.EncodeToString(digest.Sum(nil))

	p.Elapsed, p.Served = time.Since(start), res.TotalServed
	if p.Elapsed > 0 {
		p.Throughput = float64(p.Served) / p.Elapsed.Seconds()
	}
	if p.ServeElapsed > 0 {
		p.ServeThroughput = float64(p.Served) / p.ServeElapsed.Seconds()
	}
	sort.Slice(r.lats, func(a, b int) bool { return r.lats[a] < r.lats[b] })
	if n := len(r.lats); n > 0 {
		p.P50, p.P95, p.P99, p.Max = r.lats[n/2], r.lats[n*95/100], r.lats[n*99/100], r.lats[n-1]
	}
	return trs, res, p, nil
}

// step is one epoch of the paper's cycle (§3.2, §4):
//
//  1. advance: churn, crash injection, discovery, detection (advanceEpoch),
//     then the invariant suite on the fresh posteriors;
//  2. publish det once (publish);
//  3. serve: the scenario's route-only query burst, every route held to the
//     reference walk, then the workload's clients (servePhase);
//  4. feedback: one batch — the routed feedback burst, the clients'
//     verdicts, the adversaries' fabrications, in that order — ingested and
//     re-detected at the serving phase's split point, joined at the barrier
//     (pipelineJoin);
//  5. the invariant suite again on the refreshed posteriors.
//
// Every check runs on the calling goroutine while no refresh is in flight.
func (s *Simulation) step(i int, r *runState) (EpochTrace, WorkloadEpochTrace, error) {
	w, ep, seed := r.w, s.sc.Epochs[i], s.epochSeed(i+1)
	tr, det, psend, err := s.advanceEpoch(i)
	if err != nil {
		return tr, WorkloadEpochTrace{}, err
	}
	if s.net != r.srvNet {
		r.srv = serve.New(s.net, serve.Options{CacheSize: w.CacheSize})
		r.srvNet = s.net
	}
	s.summarize(&tr, det)
	if tr.Crash != nil && !tr.Crash.DigestMatch {
		tr.Violations = append(tr.Violations,
			"recovered network's inference digest differs from the pre-crash state")
	}
	tr.Violations = append(tr.Violations, s.checks(det, w.FeedbackNoise, false, psend >= 1 && det.Converged)...)

	if w.QueriesPerEpoch > 0 {
		s.ensureStores(w)
	}
	wtr := WorkloadEpochTrace{Epoch: tr.Epoch, Peers: tr.Peers, Mappings: tr.Mappings, Queries: w.QueriesPerEpoch}
	snap := s.publish(w, det, &wtr.SnapshotEpoch, &wtr.DeltaFull, &wtr.DeltaEdges)

	tr.Routing.Queries = ep.Queries
	viol, err := s.routeBurst("query", snap, det, ep.Queries, seed+1,
		func(_ graph.PeerID, res core.RouteResult, _ *rand.Rand) {
			tr.Routing.Visits += len(res.Visits)
			tr.Routing.Blocked += res.Blocked
			tr.Routing.DroppedAttr += res.DroppedAttr
		})
	if err != nil {
		return tr, wtr, err
	}
	tr.Violations = append(tr.Violations, viol...)

	// The routed feedback burst draws on the published snapshot before any
	// client runs, so the batch launched at the split point holds it.
	fq := ep.FeedbackQueries + s.flashPending
	s.flashPending = 0
	routed, viol, err := s.collectFeedbackObs(snap, det, fq, seed+2, w.FeedbackNoise)
	if err != nil {
		return tr, wtr, err
	}
	tr.Violations = append(tr.Violations, viol...)

	// The refresh launches from the mid hook, at the serving phase's
	// quiescent split point (see Workload.Pipeline): its batch is
	// deterministic, and in a pipelined run the clients serve the rest of the
	// epoch from the unchanged snapshot while it runs.
	var job chan pipelineJob
	var mid func()
	if w.Feedback || fq > 0 {
		job = make(chan pipelineJob, 1)
		mid = func() {
			injected := s.adversaryObs()
			batch := append(append(routed, r.srv.DrainFeedback()...), injected...)
			errBefore := s.posteriorError(det)
			go func() {
				ft, det2, err := s.ingestAndRedetect(batch, w)
				if ft != nil {
					ft.Queries, ft.Injected, ft.ErrBefore = fq, len(injected), errBefore
				}
				job <- pipelineJob{ft: ft, det: det2, err: err}
			}()
		}
	}

	before := r.srv.Stats()
	serveStart := time.Now()
	lats, err := s.servePhase(i, w, r.srv, snap, det, r.obs, &wtr, mid)
	if err != nil {
		return tr, wtr, err
	}
	r.perf.ServeElapsed += time.Since(serveStart)
	after := r.srv.Stats()
	wtr.Served = int(after.Served - before.Served)
	wtr.Errors = int(after.Errors - before.Errors)
	wtr.CacheHits = int(after.CacheHits - before.CacheHits)
	wtr.Revalidated = int(after.Revalidated - before.Revalidated)
	wtr.Computed = int(after.Computed - before.Computed)
	wtr.StaleReads = int(after.StaleEpochReads - before.StaleEpochReads)
	r.lats = append(r.lats, lats...)

	if job != nil {
		fbStart := time.Now()
		res, tail, err := s.pipelineJoin(w, r.srv, job)
		if err != nil {
			return tr, wtr, fmt.Errorf("feedback: %w", err)
		}
		r.perf.FeedbackWait += time.Since(fbStart)
		r.perf.Work.Add(res.ft.Work)
		tr.Feedback, wtr.Feedback, det = res.ft, res.ft, res.det
		// Tail verdicts are ingested but not yet re-detected, so det's
		// posteriors lag the maintained evidence until the next refresh.
		tr.Violations = append(tr.Violations, s.checks(det, w.FeedbackNoise, true, psend >= 1 && det.Converged && tail == 0)...)
	}
	if s.sc.RecordPosteriors {
		tr.Posteriors = flattenPosteriors(det)
	}
	wtr.Violations = tr.Violations
	return tr, wtr, nil
}

// checks holds det to the invariant suite: the posterior invariants always,
// the trust plane's contract after a feedback refresh, and under Verify the
// scratch differential — its posterior half only when posteriors is set
// (reliable delivery, a converged run, no evidence pending re-detection).
func (s *Simulation) checks(det core.DetectResult, noise float64, refreshed, posteriors bool) []string {
	viol := s.checkInvariants(det)
	if refreshed {
		viol = append(viol, s.checkAdversaryInvariants(noise)...)
	}
	if s.sc.Verify {
		viol = append(viol, s.checkScratchDifferential(det, noise, posteriors)...)
	}
	return viol
}
