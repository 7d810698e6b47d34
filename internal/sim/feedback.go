package sim

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/xmldb"
)

// This file closes the loop inside the simulator: served (or routed) query
// results are judged by a ground-truth oracle — the simulator knows exactly
// which mappings are corrupted — optionally flipped by a configurable noise
// rate, ingested as evidence (core.Network.IngestFeedback), and followed by
// a bounded incremental re-detection. The epoch driver (see step) builds one
// batch per feedback epoch from three sources in a fixed order: the
// scenario's routed feedback burst (Epoch.FeedbackQueries plus flashcrowd
// surges), the clients' verdicts the server collected, and the adversarial
// cliques' fabrications.

// FeedbackTrace is the reproducible record of one epoch's feedback cycle.
type FeedbackTrace struct {
	// Queries is the routed feedback burst size: Epoch.FeedbackQueries plus
	// this epoch's flashcrowd surge. The clients' verdicts on served answers
	// are not counted here.
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
	// SnapshotEpoch is the republished routing snapshot's epoch (served runs
	// only: a replay has no client to read it, and its next epoch publishes
	// anew). DeltaFull is true when that republication was
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

// count folds one ingested batch of n observations into the trace.
func (ft *FeedbackTrace) count(n int, rep core.FeedbackReport) {
	ft.Observations += n
	ft.Positive += rep.Positive
	ft.Negative += rep.Negative
	ft.Neutral += rep.Neutral
	ft.Stale += rep.Stale
	ft.NewFactors += rep.NewFactors
	ft.Bumped += rep.Bumped
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

// ingest installs the observations as counting factors. Under Verify they are
// also accumulated (and pruned on churn) so the scratch differential can
// replay them into a rebuilt network; without it, accumulating every
// observation of a long run would pin memory for nothing.
func (s *Simulation) ingest(obs []core.QueryFeedback, noise float64) (core.FeedbackReport, error) {
	if s.sc.Verify {
		s.fedback = append(s.fedback, obs...)
	}
	return s.net.IngestFeedback(s.feedbackOpts(noise), obs...)
}

// ingestAndRedetect performs the network-owning half of a feedback cycle:
// ingest the observations, then re-run belief propagation over the dirty
// components only, within the workload's round budget (0 = the scenario's
// MaxRounds).
func (s *Simulation) ingestAndRedetect(obs []core.QueryFeedback, w Workload) (*FeedbackTrace, core.DetectResult, error) {
	rep, err := s.ingest(obs, w.FeedbackNoise)
	if err != nil {
		return nil, core.DetectResult{}, err
	}
	ft := &FeedbackTrace{}
	ft.count(len(obs), rep)
	maxRounds := w.FeedbackMaxRounds
	if maxRounds == 0 {
		maxRounds = s.sc.MaxRounds
	}
	opts := s.detectOpts(maxRounds)
	opts.Incremental = true
	det, err := s.net.RunDetection(opts)
	if err != nil {
		return nil, core.DetectResult{}, err
	}
	ft.Rounds = det.Rounds
	ft.TouchedVars = det.TouchedVars
	ft.Work = det.Work
	ft.ErrAfter = s.posteriorError(det)
	return ft, det, nil
}

// collectFeedbackObs routes n queries on snap (routeBurst) and judges every
// traversed path with the ground-truth oracle, flipped with probability
// noise, returning the classified observations.
func (s *Simulation) collectFeedbackObs(snap *core.RoutingSnapshot, det core.DetectResult, n int, seed int64, noise float64) ([]core.QueryFeedback, []string, error) {
	attr := schema.Attribute(s.sc.AnalysisAttr)
	attrs := []schema.Attribute{attr}
	var obs []core.QueryFeedback
	viol, err := s.routeBurst("feedback query", snap, det, n, seed,
		func(origin graph.PeerID, res core.RouteResult, rng *rand.Rand) {
			for _, v := range res.Visits {
				if len(v.Via) == 0 {
					continue
				}
				verdict := noisyVerdict(s.pathVerdict(attrs, v.Via), noise, rng)
				obs = append(obs, core.QueryFeedback{Attr: attr, Chain: v.Via, Polarity: serve.VerdictPolarity(verdict), Reporter: origin})
			}
		})
	return obs, viol, err
}

// pruneFeedback drops accumulated observations reported by leaver (if any)
// or whose chain crosses a removed mapping — mirroring core's eager reporter
// and evidence retraction, so the scratch differential's replay stays exactly
// equivalent to the maintained state.
func (s *Simulation) pruneFeedback(leaver graph.PeerID, removed ...graph.EdgeID) {
	rm := make(map[graph.EdgeID]bool, len(removed))
	for _, e := range removed {
		rm[e] = true
	}
	kept := s.fedback[:0]
	for _, o := range s.fedback {
		keep := o.Reporter != leaver
		for _, e := range o.Chain {
			keep = keep && !rm[e]
		}
		if keep {
			kept = append(kept, o)
		}
	}
	s.fedback = kept
}
