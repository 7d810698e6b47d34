// Command faulttolerance demonstrates the two fault axes the stack absorbs.
//
// Lost messages (Figure 11): the embedded message passing scheme needs no
// synchronization and tolerates dropped remote messages — it converges to
// the same posteriors even when 90% of the messages are lost, only more
// slowly.
//
// Killed peers (the durability plane): with a write-ahead log attached,
// every network mutation — peers, mappings, discovered evidence, learned
// priors — journals before it applies. The program builds the paper's
// introductory network with a WAL, kills it mid-write (leaving a torn final
// frame, exactly what a real kill -9 leaves on disk), recovers from the log
// alone, verifies the recovered posteriors match bit-for-bit, and then
// keeps going: the corrupted mapping is fixed after recovery and the next
// detection epoch journals to the same log.
package main

import (
	"fmt"
	"log"
	"math"

	pdms "repro"
	"repro/internal/eval"
	"repro/internal/paper"
)

func main() {
	lossSweep()
	if err := crashRecoverContinue(); err != nil {
		log.Fatal(err)
	}
}

// lossSweep reproduces the behaviour behind Figure 11 (lost messages).
func lossSweep() {
	reference := lossRun(1.0, 0)
	fmt.Printf("reliable delivery: %d rounds, m24 posterior %.4f\n\n",
		reference.Rounds, reference.Posterior("m24", paper.Creator, -1))

	var rows [][]string
	for _, psend := range []float64{1.0, 0.9, 0.7, 0.5, 0.3, 0.1} {
		res := lossRun(psend, 42)
		drift := res.Posterior("m24", paper.Creator, -1) - reference.Posterior("m24", paper.Creator, -1)
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", psend),
			fmt.Sprint(res.Rounds),
			fmt.Sprintf("%v", res.Converged),
			fmt.Sprint(res.Transport.Dropped),
			fmt.Sprintf("%+.5f", drift),
		})
	}
	fmt.Println(eval.Table(
		[]string{"P(send)", "rounds", "converged", "dropped", "posterior drift"},
		rows))
	fmt.Println("the scheme converges even under heavy loss; only the number of")
	fmt.Println("rounds grows (Fig 11), and the fixed point is unchanged.")
}

func lossRun(psend float64, seed int64) pdms.DetectResult {
	net := paper.IntroNetwork()
	if _, err := net.DiscoverStructural([]pdms.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		log.Fatal(err)
	}
	res, err := net.RunDetection(pdms.DetectOptions{
		DefaultPrior: 0.8,
		MaxRounds:    5000,
		Tolerance:    1e-8,
		PSend:        psend,
		Seed:         seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// crashRecoverContinue is the kill → recover → continue arc. It returns an
// error instead of printing so the example test can drive it too.
func crashRecoverContinue() error {
	fmt.Println("\n--- kill -9 → recover → continue (write-ahead log) ---")

	// Storage with crash injection; a real deployment uses
	// pdms.NewWALDirStorage (see cmd/pdmssim -spec -wal).
	st := pdms.NewWALMemStorage()
	lg, err := pdms.OpenWAL(st, pdms.WALOptions{})
	if err != nil {
		return err
	}
	net, err := durableIntroNetwork(lg)
	if err != nil {
		return err
	}
	if _, err := net.DiscoverStructural([]pdms.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		return err
	}
	res, err := net.RunDetection(pdms.DetectOptions{DefaultPrior: 0.8, Seed: 1})
	if err != nil {
		return err
	}
	net.CommitPriors(res, 0.8) // learned priors are journaled state too
	net.ResetMessages()
	res, err = net.RunDetection(pdms.DetectOptions{Seed: 1})
	if err != nil {
		return err
	}
	before := res.Posterior("m24", paper.Creator, -1)
	digest := pdms.DigestNetwork(net)
	fmt.Printf("before the crash: m24 posterior %.4f (the faulty link), digest %s…\n",
		before, digest[:12])

	// Kill: the process dies mid-append — the log keeps every synced byte
	// plus 3 bytes of a torn final frame.
	if err := lg.InjectCrash(3); err != nil {
		return err
	}

	// Recover: reopen the log, rebuild the network from checkpoint + records.
	lg2, err := pdms.OpenWAL(st, pdms.WALOptions{})
	if err != nil {
		return err
	}
	rec, rep, err := lg2.Recover()
	if err != nil {
		return err
	}
	fmt.Printf("recovered: %d records replayed, %d torn bytes discarded\n",
		rep.CheckpointRecords+rep.LogRecords, rep.TornBytes)
	if got := pdms.DigestNetwork(rec); got != digest {
		return fmt.Errorf("recovered digest %s… does not match %s…", got[:12], digest[:12])
	}
	res2, err := rec.RunDetection(pdms.DetectOptions{Seed: 1})
	if err != nil {
		return err
	}
	after := res2.Posterior("m24", paper.Creator, -1)
	if math.Abs(after-before) > 1e-9 {
		return fmt.Errorf("recovered posterior %.6f differs from pre-crash %.6f", after, before)
	}
	fmt.Printf("after recovery: m24 posterior %.4f (identical — nothing was lost)\n", after)

	// Continue: the recovered network keeps journaling to the same log.
	// Fix the faulty mapping and run the next detection epoch.
	rec.RemoveMapping("m24")
	if _, err := rec.AddMapping("m24", "p2", "p4", identity()); err != nil {
		return err
	}
	if _, err := rec.DiscoverStructural([]pdms.Attribute{paper.Creator}, 6, paper.Delta); err != nil {
		return err
	}
	res3, err := rec.RunDetection(pdms.DetectOptions{Seed: 2})
	if err != nil {
		return err
	}
	fixed := res3.Posterior("m24", paper.Creator, -1)
	fmt.Printf("after the fix (next epoch, same log): m24 posterior %.4f\n", fixed)
	if fixed <= after {
		return fmt.Errorf("fixed posterior %.4f should exceed faulty %.4f", fixed, after)
	}

	// A second recovery proves the continued epoch is durable too.
	lg3, err := pdms.OpenWAL(st, pdms.WALOptions{})
	if err != nil {
		return err
	}
	rec2, _, err := lg3.Recover()
	if err != nil {
		return err
	}
	if got, want := pdms.DigestNetwork(rec2), pdms.DigestNetwork(rec); got != want {
		return fmt.Errorf("second recovery digest %s… does not match %s…", got[:12], want[:12])
	}
	fmt.Println("a second kill+recovery reproduces the fixed network as well — the")
	fmt.Println("journal, not the process, owns the state.")
	return nil
}

// identity is the identity correspondence on the example's shared attributes.
func identity() map[pdms.Attribute]pdms.Attribute {
	out := make(map[pdms.Attribute]pdms.Attribute, len(paper.Attrs()))
	for _, a := range paper.Attrs() {
		out[a] = a
	}
	return out
}

// durableIntroNetwork rebuilds the paper's introductory network (§4.5: the
// cycle p1→p2→p3→p4→p1 with the parallel mapping m24, which erroneously
// swaps Creator and CreatedOn) with every mutation journaled to lg. The WAL
// must attach before the first peer joins, so this cannot reuse
// paper.IntroNetwork.
func durableIntroNetwork(lg *pdms.WAL) (*pdms.Network, error) {
	net := pdms.NewNetwork(true)
	if err := lg.AttachTo(net); err != nil {
		return nil, err
	}
	for _, p := range []pdms.PeerID{"p1", "p2", "p3", "p4"} {
		s := pdms.MustNewSchema("S"+string(p[1:]), paper.Attrs()...)
		if _, err := net.AddPeer(p, s); err != nil {
			return nil, err
		}
	}
	bad := identity()
	bad[paper.Creator], bad[paper.CreatedOn] = paper.CreatedOn, paper.Creator
	for _, m := range []struct {
		id       pdms.MappingID
		from, to pdms.PeerID
		pairs    map[pdms.Attribute]pdms.Attribute
	}{
		{"m12", "p1", "p2", identity()},
		{"m23", "p2", "p3", identity()},
		{"m34", "p3", "p4", identity()},
		{"m41", "p4", "p1", identity()},
		{"m24", "p2", "p4", bad}, // the erroneous mapping the paper detects
	} {
		if _, err := net.AddMapping(m.id, m.from, m.to, m.pairs); err != nil {
			return nil, err
		}
	}
	return net, nil
}
