package sim

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/xmldb"
)

// This file closes the loop inside the simulator: served (or routed) query
// results are judged by a ground-truth oracle — the simulator knows exactly
// which mappings are corrupted — optionally flipped by a configurable noise
// rate, ingested as evidence (core.Network.IngestFeedback), and followed by
// a bounded incremental re-detection. Both engines share it: RunWorkload
// interleaves churn → detect → publish → serve → feedback → incremental
// detect → republish, and the scenario replay (Epoch.FeedbackQueries) runs
// the same cycle against routed queries so the invariant suite and the
// scratch differential cover feedback state too.

// FeedbackTrace is the reproducible record of one epoch's feedback cycle.
type FeedbackTrace struct {
	// Queries is the routed feedback burst size (scenario replay only; the
	// workload engine feeds back the serving phase's answers instead).
	Queries int `json:"queries,omitempty"`
	// Observations is the number of classified observations ingested, split
	// into Positive/Negative/Neutral polarities; Stale counts observations
	// whose chain churn had already dissolved. Injected counts the
	// adversarial fabrications that rode the batch alongside the honest
	// burst (included in Observations).
	Observations int `json:"observations"`
	Injected     int `json:"injected,omitempty"`
	Positive     int `json:"positive"`
	Negative     int `json:"negative"`
	Neutral      int `json:"neutral,omitempty"`
	Stale        int `json:"stale,omitempty"`
	// NewFactors/Bumped count freshly installed feedback factors and
	// observations folded into existing ones.
	NewFactors int `json:"newFactors"`
	Bumped     int `json:"bumped"`
	// Rounds and TouchedVars describe the bounded incremental re-detection:
	// how many BP rounds ran (the slowest component's count under the
	// residual schedule), over how many variables (the dirty-component
	// closure, not the whole network).
	Rounds      int `json:"rounds"`
	TouchedVars int `json:"touchedVars"`
	// Work carries the re-detection's deterministic work counters —
	// message updates, factor rebinds, resets, components, summed
	// per-component rounds — the integers perf gates assert instead of
	// wall-clock ratios.
	Work core.DetectWork `json:"work"`
	// Pipelined marks a trace produced by the pipelined workload engine,
	// where the refresh ran concurrently with the second serving sub-phase;
	// TailObservations counts the observations collected after the refresh
	// launched — ingested at the epoch barrier, re-detected by the next
	// refresh (or the end-of-run drain).
	Pipelined        bool `json:"pipelined,omitempty"`
	TailObservations int  `json:"tailObservations,omitempty"`
	// SnapshotEpoch is the republished routing snapshot's epoch (workload
	// engine only; the replay publishes for its bursts, not after the
	// feedback re-detection). DeltaFull is true when that republication was
	// from scratch, DeltaEdges the number of θ-verdict-changed edges it
	// carried as a delta — the feedback republication is the one the serve
	// plane used to cold-start on every epoch, so its delta size is the whole
	// point of the trace.
	SnapshotEpoch uint64 `json:"snapshotEpoch,omitempty"`
	DeltaFull     bool   `json:"deltaFull,omitempty"`
	DeltaEdges    int    `json:"deltaEdges,omitempty"`
	// ErrBefore/ErrAfter is the mean absolute posterior error against
	// ground truth (corrupted mappings should post 0, clean ones 1) over
	// the covered mappings, before ingestion and after the re-detection —
	// the posterior-convergence trace of the feedback loop.
	ErrBefore float64 `json:"errBefore"`
	ErrAfter  float64 `json:"errAfter"`
}

// feedbackSeedSalt decorrelates the oracle's noise stream from the client's
// query stream.
const feedbackSeedSalt = 0x5eedfeedbac4

// pathVerdict is the ground-truth oracle: follow every query attribute
// through the chain's corrupted swaps; any displaced image means the records
// served over this path were values of the wrong concept.
func (s *Simulation) pathVerdict(attrs []schema.Attribute, via []graph.EdgeID) xmldb.Verdict {
	for _, a := range attrs {
		cur := a
		for _, e := range via {
			if s.corrupted[e] {
				cur = s.swapPairs[cur]
			}
		}
		if cur != a {
			return xmldb.VerdictContradict
		}
	}
	return xmldb.VerdictConfirm
}

// noisyVerdict flips the oracle's confirm/contradict verdict with
// probability noise.
func noisyVerdict(v xmldb.Verdict, noise float64, rng *rand.Rand) xmldb.Verdict {
	if noise > 0 && rng.Float64() < noise {
		if v == xmldb.VerdictConfirm {
			return xmldb.VerdictContradict
		}
		return xmldb.VerdictConfirm
	}
	return v
}

// feedbackAnswer judges one served answer path by path and enqueues the
// verdicts on the server — the client side of the workload feedback policy.
func (s *Simulation) feedbackAnswer(srv *serve.Server, ans serve.Answer, noise float64, rng *rand.Rand) {
	for _, p := range ans.Paths {
		if p.Records == 0 || len(p.Via) == 0 {
			continue
		}
		v := noisyVerdict(s.pathVerdict(ans.Attrs, p.Via), noise, rng)
		srv.FeedbackPath(ans, p.Peer, v)
	}
}

// posteriorError is the mean absolute posterior error against ground truth
// on the analysis attribute, over the mappings the detection result covers.
func (s *Simulation) posteriorError(det core.DetectResult) float64 {
	attr := schema.Attribute(s.sc.AnalysisAttr)
	sum, n := 0.0, 0
	for _, id := range s.liveMappings() {
		m := graph.EdgeID(id)
		p := det.Posterior(m, attr, -1)
		if p < 0 {
			continue
		}
		truth := 1.0
		if s.corrupted[m] {
			truth = 0
		}
		sum += math.Abs(p - truth)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// feedbackOpts is the one place the scenario's ingestion options are built,
// for an assumed verdict error rate: core latches the last batch's NoTrust,
// so a site that dropped the flag would re-weight every factor by trust.
func (s *Simulation) feedbackOpts(noise float64) core.FeedbackOptions {
	return core.FeedbackOptions{Delta: s.sc.Delta, Noise: noise, NoTrust: s.sc.NoTrust}
}

// ingestAndRedetect performs the network-owning half of a feedback cycle:
// install the observations as counting factors, then re-run belief
// propagation over the dirty components only, within the given round budget
// (0 = the scenario's MaxRounds). The observations are also accumulated
// (and pruned on churn) so the scratch differential can replay them into a
// rebuilt network.
func (s *Simulation) ingestAndRedetect(obs []core.QueryFeedback, noise float64, maxRounds int, seed int64) (*FeedbackTrace, core.DetectResult, error) {
	ft := &FeedbackTrace{Observations: len(obs)}
	if s.sc.Verify {
		// Only the scratch differential reads the replay log; without it,
		// accumulating every observation of a long workload run would pin
		// memory for nothing.
		s.fedback = append(s.fedback, obs...)
	}
	rep, err := s.net.IngestFeedback(s.feedbackOpts(noise), obs...)
	if err != nil {
		return nil, core.DetectResult{}, err
	}
	ft.Positive, ft.Negative, ft.Neutral, ft.Stale = rep.Positive, rep.Negative, rep.Neutral, rep.Stale
	ft.NewFactors, ft.Bumped = rep.NewFactors, rep.Bumped
	if maxRounds == 0 {
		maxRounds = s.sc.MaxRounds
	}
	det, err := s.net.RunDetection(core.DetectOptions{
		Incremental: true,
		MaxRounds:   maxRounds,
		Tolerance:   1e-9,
		Seed:        seed,
		Transport:   network.Kind(s.sc.Transport),
		Shards:      s.sc.Shards,
		Workers:     s.sc.DetectWorkers,
		Blocked:     s.blockedFn(),
	})
	if err != nil {
		return nil, core.DetectResult{}, err
	}
	ft.Rounds = det.Rounds
	ft.TouchedVars = det.TouchedVars
	ft.Work = det.Work
	ft.ErrAfter = s.posteriorError(det)
	return ft, det, nil
}

// collectFeedbackObs routes n queries on the given posteriors (routeBurst)
// and judges every traversed path with the (noisy) ground-truth oracle,
// returning the classified observations.
func (s *Simulation) collectFeedbackObs(n int, det core.DetectResult, seed int64) ([]core.QueryFeedback, []string, error) {
	attr := schema.Attribute(s.sc.AnalysisAttr)
	attrs := []schema.Attribute{attr}
	var obs []core.QueryFeedback
	viol, err := s.routeBurst("feedback query", n, det, seed,
		func(origin graph.PeerID, res core.RouteResult, rng *rand.Rand) {
			for _, v := range res.Visits {
				if len(v.Via) == 0 {
					continue
				}
				verdict := noisyVerdict(s.pathVerdict(attrs, v.Via), s.sc.FeedbackNoise, rng)
				obs = append(obs, core.QueryFeedback{Attr: attr, Chain: v.Via, Polarity: serve.VerdictPolarity(verdict), Reporter: origin})
			}
		})
	return obs, viol, err
}

// feedbackBurst is the scenario replay's feedback epoch: route n queries on
// the fresh posteriors, judge every traversed path with the (noisy) oracle,
// append the adversarial cliques' fabrications to the same batch, ingest,
// and re-detect incrementally.
func (s *Simulation) feedbackBurst(n int, det core.DetectResult, seed int64) (*FeedbackTrace, core.DetectResult, []string, error) {
	obs, viol, err := s.collectFeedbackObs(n, det, seed)
	if err != nil {
		return nil, core.DetectResult{}, viol, err
	}
	injected := s.adversaryObs()
	obs = append(obs, injected...)
	errBefore := s.posteriorError(det)
	ft, det2, err := s.ingestAndRedetect(obs, s.sc.FeedbackNoise, 0, seed+1)
	if err != nil {
		return nil, core.DetectResult{}, viol, err
	}
	ft.Queries = n
	ft.Injected = len(injected)
	ft.ErrBefore = errBefore
	return ft, det2, viol, nil
}

// pruneFeedback drops accumulated observations whose chain crosses a
// removed mapping — mirroring core's eager evidence retraction so the
// scratch differential's replay stays exactly equivalent to the maintained
// state.
func (s *Simulation) pruneFeedback(removed ...graph.EdgeID) {
	if len(s.fedback) == 0 || len(removed) == 0 {
		return
	}
	rm := make(map[graph.EdgeID]bool, len(removed))
	for _, e := range removed {
		rm[e] = true
	}
	kept := s.fedback[:0]
	for _, o := range s.fedback {
		touches := false
		for _, e := range o.Chain {
			if rm[e] {
				touches = true
				break
			}
		}
		if !touches {
			kept = append(kept, o)
		}
	}
	s.fedback = kept
}

// pruneFeedbackReporter drops accumulated observations reported by a departed
// peer — mirroring core's eager reporter retraction on RemovePeer, so the
// scratch differential's replay stays exactly equivalent to the maintained
// state.
func (s *Simulation) pruneFeedbackReporter(id graph.PeerID) {
	if len(s.fedback) == 0 {
		return
	}
	kept := s.fedback[:0]
	for _, o := range s.fedback {
		if o.Reporter != id {
			kept = append(kept, o)
		}
	}
	s.fedback = kept
}
