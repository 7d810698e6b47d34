package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/factorgraph"
	"repro/internal/feedback"
	"repro/internal/graph"
	"repro/internal/paper"
	"repro/internal/schema"
)

func TestNetworkConstruction(t *testing.T) {
	n := core.NewNetwork(true)
	if !n.Directed() {
		t.Error("Directed = false")
	}
	s := schema.MustNew("S", "a")
	if _, err := n.AddPeer("", s); err == nil {
		t.Error("empty id: want error")
	}
	if _, err := n.AddPeer("p1", nil); err == nil {
		t.Error("nil schema: want error")
	}
	if _, err := n.AddPeer("p1", s); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddPeer("p1", s); err == nil {
		t.Error("duplicate peer: want error")
	}
	if p, ok := n.Peer("p1"); !ok || p.ID() != "p1" || p.Schema() != s {
		t.Error("Peer lookup failed")
	}
	if n.NumPeers() != 1 {
		t.Errorf("NumPeers = %d", n.NumPeers())
	}
}

func TestAddMappingValidation(t *testing.T) {
	n := core.NewNetwork(true)
	s1 := schema.MustNew("S1", "a", "b")
	s2 := schema.MustNew("S2", "x", "y")
	n.MustAddPeer("p1", s1)
	n.MustAddPeer("p2", s2)
	if _, err := n.AddMapping("m", "ghost", "p2", nil); err == nil {
		t.Error("unknown from-peer: want error")
	}
	if _, err := n.AddMapping("m", "p1", "ghost", nil); err == nil {
		t.Error("unknown to-peer: want error")
	}
	if _, err := n.AddMapping("m", "p1", "p2", map[schema.Attribute]schema.Attribute{"zzz": "x"}); err == nil {
		t.Error("unknown source attribute: want error")
	}
	m, err := n.AddMapping("m12", "p1", "p2", map[schema.Attribute]schema.Attribute{"a": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Map("a"); !ok || got != "x" {
		t.Error("mapping content wrong")
	}
	if _, err := n.AddMapping("m12", "p1", "p2", nil); err == nil {
		t.Error("duplicate mapping id: want error")
	}
	p1, _ := n.Peer("p1")
	if out := p1.Outgoing(); len(out) != 1 || out[0] != "m12" {
		t.Errorf("Outgoing = %v", out)
	}
	if owner, ok := n.Owner("m12"); !ok || owner.ID() != "p1" {
		t.Error("Owner lookup failed")
	}
}

func TestRemoveMapping(t *testing.T) {
	n := paper.IntroNetwork()
	n.RemoveMapping("m24")
	if _, ok := n.Mapping("m24"); ok {
		t.Error("mapping still resolvable after removal")
	}
	p2, _ := n.Peer("p2")
	for _, id := range p2.Outgoing() {
		if id == "m24" {
			t.Error("removed mapping still owned")
		}
	}
	n.RemoveMapping("ghost") // no-op
}

func TestDiscoverStructuralIntro(t *testing.T) {
	n := paper.IntroNetwork()
	rep, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta)
	if err != nil {
		t.Fatal(err)
	}
	// §4.5: f1+ (4-cycle), f2− (3-cycle), f3−⇒ (parallel pair).
	if rep.Positive != 1 || rep.Negative != 2 {
		t.Errorf("report = %+v, want 1 positive / 2 negative", rep)
	}
	if rep.Cycles != 2 || rep.ParallelPairs != 1 {
		t.Errorf("report = %+v, want 2 cycle + 1 pair observations", rep)
	}
	if rep.Neutral != 0 || rep.Pinned != 0 {
		t.Errorf("report = %+v, want no neutral/pins", rep)
	}
}

func TestDiscoverStructuralValidation(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverStructural(nil, 6, 0.1); err == nil {
		t.Error("no attrs: want error")
	}
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 1, 0.1); err == nil {
		t.Error("maxLen<2: want error")
	}
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, 1.5); err == nil {
		t.Error("delta>1: want error")
	}
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, math.NaN()); err == nil {
		t.Error("delta NaN: want error")
	}
}

// TestIntroExampleReproduction reproduces §4.5 end to end: uniform priors
// 0.5, Δ=0.1; the posteriors of p2's outgoing mappings converge to ≈0.59
// (m23) and ≈0.3 (m24), and the EM prior update moves the priors to ≈0.55
// and ≈0.4.
func TestIntroExampleReproduction(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	res, err := n.RunDetection(core.DetectOptions{MaxRounds: 200, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d rounds", res.Rounds)
	}
	m23 := res.Posterior("m23", paper.Creator, -1)
	m24 := res.Posterior("m24", paper.Creator, -1)
	if math.Abs(m23-0.59) > 0.04 {
		t.Errorf("posterior m23 = %.4f, paper quotes 0.59", m23)
	}
	if math.Abs(m24-0.30) > 0.02 {
		t.Errorf("posterior m24 = %.4f, paper quotes 0.3", m24)
	}
	// Thresholding at θ=0.5 keeps m23 and rejects m24.
	if m23 <= 0.5 || m24 >= 0.5 {
		t.Errorf("θ=0.5 routing decision wrong: m23=%.3f m24=%.3f", m23, m24)
	}

	// Prior update (§4.4): running mean of {0.5, posterior}.
	if got := n.CommitPriors(res, 0.5); got == 0 {
		t.Fatal("CommitPriors updated nothing")
	}
	p2, _ := n.Peer("p2")
	prior23 := p2.PriorFor("m23", paper.Creator, 0.5)
	prior24 := p2.PriorFor("m24", paper.Creator, 0.5)
	if math.Abs(prior23-0.55) > 0.03 {
		t.Errorf("updated prior m23 = %.4f, paper quotes 0.55", prior23)
	}
	if math.Abs(prior24-0.40) > 0.03 {
		t.Errorf("updated prior m24 = %.4f, paper quotes 0.4", prior24)
	}
}

// TestDecentralizedMatchesCentralized is the semantic cornerstone: on a
// loss-free network, the embedded message passing scheme must produce
// exactly the posteriors of the centralized synchronous sum-product engine
// run on the equivalent global factor graph.
func TestDecentralizedMatchesCentralized(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *core.Network
	}{
		{"intro", paper.IntroNetwork},
		{"fig5", paper.Fig5Network},
		{"fig4-undirected", paper.Fig4Network},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 17 // fixed, pre-convergence: must match step for step
			n := tc.build()
			if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
				t.Fatal(err)
			}
			res, err := n.RunDetection(core.DetectOptions{
				DefaultPrior: 0.7,
				MaxRounds:    rounds,
				Tolerance:    1e-300, // never converge early
			})
			if err != nil {
				t.Fatal(err)
			}

			// Centralized reference on the same evidence.
			an, err := feedback.Analyze(paper.Creator, n.Topology(), n.Resolver(), 6)
			if err != nil {
				t.Fatal(err)
			}
			fg, err := feedback.BuildFactorGraph(an, func(graph.EdgeID) float64 { return 0.7 }, paper.Delta)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := fg.Run(factorgraph.Options{MaxIterations: rounds, Tolerance: 1e-300})
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Posteriors) == 0 {
				t.Fatal("centralized reference produced no posteriors")
			}
			for name, want := range ref.Posteriors {
				got := res.Posterior(graph.EdgeID(name), paper.Creator, -1)
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("posterior[%s] = %.12f, centralized %.12f", name, got, want)
				}
			}
		})
	}
}

func TestDetectOptionsValidation(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunDetection(core.DetectOptions{DefaultPrior: 2}); err == nil {
		t.Error("bad prior: want error")
	}
	if _, err := n.RunDetection(core.DetectOptions{PSend: -1}); err == nil {
		t.Error("bad PSend: want error")
	}
	if _, err := n.RunDetection(core.DetectOptions{MaxRounds: -1}); err == nil {
		t.Error("bad MaxRounds: want error")
	}
	if _, err := n.RunDetection(core.DetectOptions{StableRounds: -1}); err == nil {
		t.Error("bad StableRounds: want error")
	}
	nan := math.NaN()
	for name, opts := range map[string]core.DetectOptions{
		"NaN prior":             {DefaultPrior: nan},
		"NaN PSend":             {PSend: nan},
		"NaN Tolerance":         {Tolerance: nan},
		"negative Tolerance":    {Tolerance: -1e-6},
		"negative Workers":      {Workers: -1},
		"negative Shards (sim)": {Shards: -1},
	} {
		if _, err := n.RunDetection(opts); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// A rejected run leaves no poisoned messages behind.
	res, err := n.RunDetection(core.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posteriors) == 0 {
		t.Fatal("no posteriors to check")
	}
	for m, attrs := range res.Posteriors {
		for a, v := range attrs {
			if math.IsNaN(v) {
				t.Errorf("posterior[%s,%s] is NaN after the rejected runs", m, a)
			}
		}
	}
}

func TestMessageLossConvergence(t *testing.T) {
	// Fig 11: the scheme converges under heavy message loss, only slower,
	// and to the same fixed point.
	build := func() *core.Network {
		n := paper.IntroNetwork()
		if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
			t.Fatal(err)
		}
		return n
	}
	reliable, err := build().RunDetection(core.DetectOptions{DefaultPrior: 0.8, MaxRounds: 2000, Tolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !reliable.Converged {
		t.Fatal("reliable run did not converge")
	}
	lossy, err := build().RunDetection(core.DetectOptions{
		DefaultPrior: 0.8, MaxRounds: 2000, Tolerance: 1e-8, PSend: 0.3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lossy.Converged {
		t.Fatal("lossy run did not converge")
	}
	if lossy.Rounds <= reliable.Rounds {
		t.Errorf("lossy rounds %d <= reliable %d; loss must slow convergence", lossy.Rounds, reliable.Rounds)
	}
	for _, m := range []graph.EdgeID{"m23", "m24"} {
		a := reliable.Posterior(m, paper.Creator, -1)
		b := lossy.Posterior(m, paper.Creator, -2)
		if math.Abs(a-b) > 1e-3 {
			t.Errorf("fixed point differs under loss for %s: %.6f vs %.6f", m, a, b)
		}
	}
	if lossy.Transport.Dropped == 0 {
		t.Error("no messages dropped at PSend=0.3")
	}
}

// TestOverheadBound checks §4.3.1: each peer sends at most Σ_ci (l_ci − 1)
// remote messages per period, summed over the evidence structures through
// its mappings.
func TestOverheadBound(t *testing.T) {
	n := paper.Fig5Network()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	res, err := n.RunDetection(core.DetectOptions{MaxRounds: 3, Tolerance: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	// §4.3.1's bound: each variable position in a structure of length l
	// sends at most l−1 remote messages per round, so Σ over structures of
	// l·(l−1) bounds the network-wide per-round traffic. Fig 5 for one
	// attribute has 3 cycles (lengths 2, 4, 3) and 3 parallel pairs
	// (lengths 3, 3, 4).
	bound := 0
	for _, l := range []int{2, 4, 3, 3, 3, 4} {
		bound += l * (l - 1)
	}
	perRound := res.RemoteMessages / res.Rounds
	if perRound > bound {
		t.Errorf("remote messages per round = %d exceeds bound %d", perRound, bound)
	}
	if res.RemoteMessages == 0 {
		t.Error("no remote messages sent")
	}
}

func TestTraceRounds(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	var rounds []int
	var lastM24 float64
	_, err := n.RunDetection(core.DetectOptions{
		MaxRounds: 10,
		Tolerance: 1e-300,
		Trace: func(r int, post map[graph.EdgeID]map[schema.Attribute]float64) {
			rounds = append(rounds, r)
			lastM24 = post["m24"][paper.Creator]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 10 || rounds[0] != 1 || rounds[9] != 10 {
		t.Errorf("trace rounds = %v", rounds)
	}
	if lastM24 <= 0 || lastM24 >= 1 {
		t.Errorf("traced posterior out of range: %v", lastM24)
	}
}

func TestPinnedMappingReportsZero(t *testing.T) {
	// Build the intro network but strip Creator from m34: cycles through
	// m34 turn neutral and m34 gets pinned for the arriving attribute.
	n := core.NewNetwork(true)
	attrs := paper.Attrs()
	for _, id := range []graph.PeerID{"p1", "p2", "p3", "p4"} {
		n.MustAddPeer(id, schema.MustNew("S"+string(id[1]), attrs...))
	}
	id := core.IdentityPairs(schema.MustNew("tmp", attrs...))
	n.MustAddMapping("m12", "p1", "p2", id)
	n.MustAddMapping("m23", "p2", "p3", id)
	noCreator := make(map[schema.Attribute]schema.Attribute)
	for _, a := range attrs {
		if a != paper.Creator {
			noCreator[a] = a
		}
	}
	n.MustAddMapping("m34", "p3", "p4", noCreator)
	n.MustAddMapping("m41", "p4", "p1", id)
	n.MustAddMapping("m24", "p2", "p4", id)

	rep, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pinned == 0 || rep.Neutral == 0 {
		t.Fatalf("report = %+v, want pins and neutral observations", rep)
	}
	p3, _ := n.Peer("p3")
	if !p3.Pinned("m34", paper.Creator) {
		t.Error("m34 not pinned for Creator")
	}
	res, err := n.RunDetection(core.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Posterior("m34", paper.Creator, -1); got != 0 {
		t.Errorf("pinned posterior = %v, want 0", got)
	}
}

func TestSetPriorInfluencesPosterior(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	p2, _ := n.Peer("p2")
	p2.SetPrior("m24", paper.Creator, 0.99) // expert vouches for the bad mapping
	res, err := n.RunDetection(core.DetectOptions{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	base := paper.IntroNetwork()
	if _, err := base.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	resBase, err := base.RunDetection(core.DetectOptions{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior("m24", paper.Creator, -1) <= resBase.Posterior("m24", paper.Creator, -1) {
		t.Error("explicit high prior should raise the posterior")
	}
}

func TestCommitPriorsAccumulates(t *testing.T) {
	n := paper.IntroNetwork()
	if _, err := n.DiscoverStructural([]schema.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		t.Fatal(err)
	}
	res, err := n.RunDetection(core.DetectOptions{MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	n.CommitPriors(res, 0.5)
	p2, _ := n.Peer("p2")
	first := p2.PriorFor("m24", paper.Creator, 0.5)
	// Second commit with the same posterior moves the mean further toward
	// the posterior.
	n.CommitPriors(res, 0.5)
	second := p2.PriorFor("m24", paper.Creator, 0.5)
	post := res.Posterior("m24", paper.Creator, -1)
	if !(second < first && second > post) {
		t.Errorf("prior sequence wrong: first=%.4f second=%.4f posterior=%.4f", first, second, post)
	}
}

func TestAttachStore(t *testing.T) {
	n := paper.IntroNetwork()
	p1, _ := n.Peer("p1")
	if err := p1.AttachStore(nil); err == nil {
		t.Error("nil store: want error")
	}
	if _, ok := p1.Store(); ok {
		t.Error("store should be absent")
	}
}

func TestRingPositiveCyclePosterior(t *testing.T) {
	// Fig 10 anchor: for a 2-ring with positive feedback, priors 0.5 and
	// Δ=0.1, the posterior is 1/(1+Δ) ≈ 0.909; the factor graph is a tree
	// so 2 rounds are exact.
	n, err := paper.RingNetwork(2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.DiscoverStructural([]schema.Attribute{"a0"}, 2, 0.1); err != nil {
		t.Fatal(err)
	}
	res, err := n.RunDetection(core.DetectOptions{MaxRounds: 2, Tolerance: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / 1.1
	for _, m := range []graph.EdgeID{"m0", "m1"} {
		if got := res.Posterior(m, "a0", -1); math.Abs(got-want) > 1e-9 {
			t.Errorf("posterior %s = %.6f, want %.6f", m, got, want)
		}
	}
}

func TestPosteriorDefault(t *testing.T) {
	var res core.DetectResult
	if got := res.Posterior("zz", "a", 0.42); got != 0.42 {
		t.Errorf("default = %v", got)
	}
}
