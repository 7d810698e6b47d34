package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/schema"
)

// This file is the durability seam of the network: every mutation that a
// crash must not lose — peers and mappings appearing and disappearing
// (churn), explicit and learned priors, evidence discovery passes and
// feedback ingestion — is described by a Mutation record and journaled
// through an attached Journal *before* it is applied. The journal
// implementation (internal/wal) persists the records and knows nothing of
// their meaning: its checkpoints are the network's own canonical export
// (DurableState, durable.go) and its recovery is Apply over checkpoint + log
// suffix, which rebuilds a bit-equivalent network. Belief-propagation
// messages are deliberately not journaled: they are recomputed
// deterministically by ResetMessages + RunDetection, so a crashed detection
// round is simply re-run from the durable evidence state.

// MutKind discriminates mutation records. Values are part of the WAL format;
// never renumber.
type MutKind uint8

// Mutation kinds.
const (
	// MutInit opens every log: it fixes the network's directedness.
	MutInit MutKind = 1
	// MutAddPeer records AddPeer: a peer joining with its schema.
	MutAddPeer MutKind = 2
	// MutAddMapping records AddMapping with its attribute correspondences.
	MutAddMapping MutKind = 3
	// MutRemovePeer records RemovePeer (churn).
	MutRemovePeer MutKind = 4
	// MutRemoveMapping records RemoveMapping (churn).
	MutRemoveMapping MutKind = 5
	// MutSetPrior records Peer.SetPrior: explicit prior knowledge.
	MutSetPrior MutKind = 6
	// MutDiscover records a full Discover pass with its configuration.
	MutDiscover MutKind = 7
	// MutDiscoverInc records DiscoverIncremental over changed mappings.
	MutDiscoverInc MutKind = 8
	// MutFeedback records one aggregated feedback ingestion batch.
	MutFeedback MutKind = 9
	// MutPriorSamples records the exact (peer, variable, sample) entries a
	// CommitPriors pass appended, so replay reproduces the running means
	// without re-deriving which variables existed at commit time.
	MutPriorSamples MutKind = 10
	// MutCheckpoint is the header record of a checkpoint file: summary
	// counts, the last log sequence number covered, and a digest of the
	// network's inference state at checkpoint time.
	MutCheckpoint MutKind = 11
	// MutMark is a no-op marker. The crash injector appends one without
	// syncing so a seeded prefix of its frame can survive as a torn tail.
	MutMark MutKind = 12
)

// String names the kind for diagnostics.
func (k MutKind) String() string {
	switch k {
	case MutInit:
		return "init"
	case MutAddPeer:
		return "add-peer"
	case MutAddMapping:
		return "add-mapping"
	case MutRemovePeer:
		return "remove-peer"
	case MutRemoveMapping:
		return "remove-mapping"
	case MutSetPrior:
		return "set-prior"
	case MutDiscover:
		return "discover"
	case MutDiscoverInc:
		return "discover-inc"
	case MutFeedback:
		return "feedback"
	case MutPriorSamples:
		return "prior-samples"
	case MutCheckpoint:
		return "checkpoint"
	case MutMark:
		return "mark"
	}
	return fmt.Sprintf("mutkind(%d)", uint8(k))
}

// AttrPair is one attribute correspondence of a journaled mapping.
type AttrPair struct {
	From, To schema.Attribute
}

// FeedbackGroup is one aggregated feedback observation: every confirm and
// contradict verdict for the same (attribute, chain, reporter) folded into
// polarity counts. IngestFeedback reduces raw observations to groups before
// applying them, so the group is the natural journal unit. Reporter is the
// peer the judged answers originated at — journaled so recovery rebuilds the
// per-reporter tallies (and thus the trust scores) exactly.
type FeedbackGroup struct {
	Attr     schema.Attribute
	Chain    []graph.EdgeID
	Pos, Neg int
	Reporter graph.PeerID
}

// PriorSample is one evidence sample appended to a peer's prior for a
// variable by CommitPriors (or the seed sample installed on first commit).
type PriorSample struct {
	Peer    graph.PeerID
	Mapping graph.EdgeID
	Attr    schema.Attribute
	Sample  float64
}

// CheckpointInfo is the checkpoint header: what the body that follows it —
// the network's DurableState at checkpoint time — contains and the
// fingerprint recovery must land on.
type CheckpointInfo struct {
	// LastSeq is the highest log sequence number the checkpoint covers;
	// recovery skips log records at or below it.
	LastSeq uint64
	// Peers and Mappings count the live topology at checkpoint time.
	Peers, Mappings int
	// Replicas, Vars and Pins summarize the inference state (evidence
	// replicas, correctness variables, ⊥ pins network-wide).
	Replicas, Vars, Pins int
	// Digest is the SHA-256 (hex) of the network's InferenceDigest at
	// checkpoint time.
	Digest string
}

// Mutation is one journaled state change, a tagged union over the kinds
// above. Only the fields relevant to Kind are populated.
type Mutation struct {
	Kind MutKind

	Directed bool // MutInit

	Peer       graph.PeerID       // MutAddPeer, MutRemovePeer
	SchemaName string             // MutAddPeer
	Attrs      []schema.Attribute // MutAddPeer

	Edge     graph.EdgeID // MutAddMapping, MutRemoveMapping, MutSetPrior
	From, To graph.PeerID // MutAddMapping
	Pairs    []AttrPair   // MutAddMapping, sorted by From

	Attr  schema.Attribute // MutSetPrior
	Prior float64          // MutSetPrior

	Cfg     *DiscoverConfig // MutDiscover, MutDiscoverInc
	Changed []graph.EdgeID  // MutDiscoverInc

	FbOpts *FeedbackOptions // MutFeedback (post-default options)
	Groups []FeedbackGroup  // MutFeedback

	Samples []PriorSample // MutPriorSamples

	Checkpoint *CheckpointInfo // MutCheckpoint
}

// Journal is the durability hook: an attached journal receives every
// Mutation before it is applied. Implementations must persist the record (or
// fail loudly); internal/wal is the canonical implementation.
type Journal interface {
	Append(Mutation) error
}

// AttachWAL attaches a journal: from now on every durable mutation is
// appended to it before it mutates the network. Detach with AttachWAL(nil).
// Attaching does not journal the network's existing state — attach to a
// fresh network (wal.Log.AttachTo does this and writes the opening MutInit),
// or to one just rebuilt by wal.Recover, whose log already holds its history
// (or a checkpoint of it: the DurableState some earlier run exported).
func (n *Network) AttachWAL(j Journal) {
	n.wal = j
	n.walErr = nil
}

// WAL returns the attached journal, if any.
func (n *Network) WAL() Journal { return n.wal }

// JournalError returns the first journal failure recorded by a mutator whose
// signature cannot surface errors (RemoveMapping, RemovePeer, SetPrior,
// CommitPriors). A non-nil result means the log may be missing records and
// recovery from it is unsound until the error is resolved.
func (n *Network) JournalError() error { return n.walErr }

// journal appends m to the attached journal, if any. The sticky walErr keeps
// the first failure visible to callers of void mutators.
func (n *Network) journal(m Mutation) error {
	if n.wal == nil {
		return nil
	}
	if err := n.wal.Append(m); err != nil {
		if n.walErr == nil {
			n.walErr = fmt.Errorf("core: journaling %s: %w", m.Kind, err)
		}
		return n.walErr
	}
	return nil
}

// ApplyPriorSamples appends prior samples: each entry is appended to the
// owning peer's sample sequence and the prior becomes the running mean,
// exactly as CommitPriors (or SetPrior seeding) leaves it. The batch is
// journaled as one MutPriorSamples record before it applies; during
// recovery the replaying network has no journal attached, so replay does
// not re-journal. Entries for unknown peers are skipped — the peer was
// removed after the samples were journaled, and removal discards its
// priors. Journal failures surface through the network's sticky WAL error
// (see journal).
func (n *Network) ApplyPriorSamples(entries []PriorSample) {
	n.journal(Mutation{Kind: MutPriorSamples, Samples: entries})
	n.bumpInfer()
	for _, e := range entries {
		p, ok := n.peers[e.Peer]
		if !ok {
			continue
		}
		if p.samples == nil {
			p.samples = make(map[varKey][]float64)
		}
		if p.priors == nil {
			p.priors = make(map[varKey]float64)
		}
		key := varKey{Mapping: e.Mapping, Attr: e.Attr}
		p.samples[key] = append(p.samples[key], e.Sample)
		sum := 0.0
		for _, s := range p.samples[key] {
			sum += s
		}
		p.priors[key] = sum / float64(len(p.samples[key]))
	}
}
