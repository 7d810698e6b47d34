package main

// sizes pins every count a run depends on. Counts, not durations, bound the
// work, so the work counters of two runs with the same seed are equal. The
// overlay sizes never scale; -seconds scales the answer counts only.
type sizes struct {
	// Overlay: internal/sim's generated scenario for OverlaySeed, a
	// Barabási–Albert topology of identity mappings over Attrs attributes of
	// which a Corrupt share is corrupted; Records documents per peer over a
	// vocabulary of Vocab literals.
	Peers       int     `json:"peers"`
	Attach      int     `json:"attach"`
	Attrs       int     `json:"attrs"`
	OverlaySeed int64   `json:"overlay_seed"`
	Corrupt     float64 `json:"corrupt"`
	Records     int     `json:"records"`
	Vocab       int     `json:"vocab"`
	// Detection: structure length bound, Δ, θ and the round cap.
	MaxLen    int     `json:"max_len"`
	Delta     float64 `json:"delta"`
	Theta     float64 `json:"theta"`
	MaxRounds int     `json:"max_rounds"`
	// Repeats is how many times set-up and the cold start run, each on a
	// fresh network; setup_s and detect_s are the medians.
	Repeats int `json:"repeats"`
	// Serving: closed loop, Clients clients, Passes equal passes of
	// PassAnswers answers after one warm-up pass; the passes are short and
	// many, see servePasses. A HotShare of the stream
	// draws from the hot keys (HotOrigins origins, analysis attribute,
	// four literals), the rest uniformly from the whole key universe.
	Clients     int     `json:"clients"`
	CacheSize   int     `json:"cache_size"`
	HotOrigins  int     `json:"hot_origins"`
	HotShare    float64 `json:"hot_share"`
	PassAnswers int     `json:"pass_answers"`
	Passes      int     `json:"passes"`
	// Samples answers are replayed outside the serve layer and compared
	// byte for byte.
	Samples int `json:"samples"`
	// Refresh: Refreshes cycles of RefreshAnswers judged answers, then
	// drain → ingest → incremental re-detection → delta publication. The
	// re-detection gets RefreshRounds rounds, the budget the repository's
	// own million-query acceptance runs use: posteriors are refreshed every
	// cycle anyway, and without it one batch that does not converge costs
	// six times the others. FeedbackNoise is the share of verdicts flipped:
	// 0 where the bench drives the refresh, because flipped verdicts plant
	// contradicting factors, and whether enough of them land on one loop to
	// stop belief propagation converging (six times the barrier, 50 MiB more
	// garbage) is a coin toss per seed; closed_loop keeps the product's 10%.
	Refreshes      int     `json:"refreshes"`
	RefreshAnswers int     `json:"refresh_answers"`
	RefreshRounds  int     `json:"refresh_rounds"`
	FeedbackNoise  float64 `json:"feedback_noise"`
	// Recovers is how many times the journal is reopened and replayed.
	Recovers int `json:"recovers"`
	// closed_loop only: Loops runs of Epochs epochs of QueriesPerEpoch
	// queries, Events churn events in each of the first ChurnEpochs epochs, a
	// FeedbackRate share of the answers judged.
	Loops           int     `json:"loops,omitempty"`
	Epochs          int     `json:"epochs,omitempty"`
	ChurnEpochs     int     `json:"churn_epochs,omitempty"`
	Events          int     `json:"events,omitempty"`
	QueriesPerEpoch int     `json:"queries_per_epoch,omitempty"`
	FeedbackRate    float64 `json:"feedback_rate,omitempty"`
}

// scaled multiplies the answer counts by f.
func (sz sizes) scaled(f float64) sizes {
	scale := func(n int) int { return max(sz.Clients, int(float64(n)*f)) }
	sz.PassAnswers = scale(sz.PassAnswers)
	if sz.QueriesPerEpoch > 0 {
		sz.QueriesPerEpoch = scale(sz.QueriesPerEpoch)
	}
	return sz
}

// overlay1k is the overlay the serving workloads share.
var overlay1k = sizes{
	Peers: 1000, Attach: 2, Attrs: 4, OverlaySeed: 2, Corrupt: 0.15, Records: 4, Vocab: 8,
	MaxLen: 4, Delta: 0.1, Theta: 0.5, MaxRounds: 300,
	Repeats: 15, Clients: 2, HotOrigins: 64, Samples: 2000,
	Refreshes: 9, RefreshAnswers: 20_000, RefreshRounds: 60, FeedbackNoise: 0, Recovers: 15,
}

type workloadSpec struct {
	sizes sizes
	run   func(*run) error
}

// workloads maps the manifest's workload names to their pinned sizes. The
// answer counts are sized for the manifest's run_seconds on a 2-core box.
var workloads = map[string]workloadSpec{
	"serve_hot":      {serveHotSizes(), (*run).lifecycle},
	"serve_cold":     {serveColdSizes(), (*run).lifecycle},
	"detect_scratch": {detectScratchSizes(), (*run).lifecycle},
	"closed_loop":    {closedLoopSizes(), (*run).closedLoop},
}

// serve_hot: the key universe (68,576 keys) fits the cache, so after the
// warm-up pass every answer is a hit.
func serveHotSizes() sizes {
	sz := overlay1k
	sz.CacheSize, sz.HotShare = 1<<17, 0.8
	sz.PassAnswers, sz.Passes = 500_000, 56
	return sz
}

// serve_cold: uniform keys over the whole universe against a cache sixteen
// times smaller, so the miss path dominates.
func serveColdSizes() sizes {
	sz := overlay1k
	sz.CacheSize, sz.HotShare = 4096, 0
	sz.PassAnswers, sz.Passes = 100_000, 28
	return sz
}

// detect_scratch: the 10k-peer overlay hits the round cap, so the cold start
// is a fixed amount of discovery and message passing. Serving is a short
// probe of the first snapshot.
func detectScratchSizes() sizes {
	sz := overlay1k
	sz.Peers, sz.Repeats = 10_000, 3
	sz.CacheSize, sz.HotShare = 4096, 0
	sz.PassAnswers, sz.Passes = 50_000, 12
	sz.Samples = 500
	sz.Refreshes, sz.RefreshAnswers, sz.Recovers = 5, 5_000, 3
	return sz
}

// closed_loop: internal/sim drives the product's own loop; churn in the first
// half of the epochs only, so the quiet half shows delta publication and
// cache revalidation. Every detection gets the refresh's round budget: once
// feedback factors are in, whether an epoch's belief propagation converges
// (about 58 rounds) or runs to the cap depends on which answers the seed
// had judged, and with the cap at 300 the seeds split into 3 s and 8 s runs.
func closedLoopSizes() sizes {
	sz := overlay1k
	sz.RefreshRounds = 40
	sz.MaxRounds = sz.RefreshRounds
	sz.CacheSize, sz.HotShare = 1<<16, 0.8
	sz.Loops, sz.Epochs, sz.ChurnEpochs, sz.Events = 5, 8, 4, 6
	sz.QueriesPerEpoch, sz.FeedbackRate, sz.FeedbackNoise = 125_000, 0.02, 0.1
	// The traced run's probes of the final network: one pass, two refreshes.
	sz.PassAnswers, sz.Samples = 100_000, 500
	sz.Refreshes, sz.RefreshAnswers = 2, 5_000
	return sz
}
