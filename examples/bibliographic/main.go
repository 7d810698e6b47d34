// Command bibliographic runs the real-world-schema experiment of §5.2: six
// bibliographic ontologies in the style of the EON Ontology Alignment
// Contest are aligned automatically into a PDMS of thirty mappings; the
// message passing scheme then grades every generated attribute
// correspondence, and the program prints the precision/recall curve of
// Figure 12 together with the worst-rated correspondences.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	pdms "repro"
	"repro/internal/eon"
	"repro/internal/eval"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	ex, err := eon.Build(eon.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ontologies: %d peers, %d alignments, %d correspondences (%d erroneous)\n",
		ex.Network.NumPeers(), len(ex.Alignments), len(ex.Correspondences), ex.Faulty())

	rep, err := ex.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "evidence: %d positive, %d negative, %d neutral comparisons, %d pins\n\n",
		rep.Positive, rep.Negative, rep.Neutral, rep.Pinned)

	thetas := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	pts := pdms.PrecisionCurve(ex.Judgments(), thetas)
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{
			fmt.Sprintf("%.1f", p.Theta),
			fmt.Sprint(p.Detected),
			fmt.Sprintf("%.2f", p.Precision),
			fmt.Sprintf("%.2f", p.Recall),
		}
	}
	fmt.Fprintln(w, eval.Table([]string{"θ", "detected", "precision", "recall"}, rows))

	// The ten correspondences the system is most confident are wrong.
	sorted := append([]eon.Correspondence(nil), ex.Correspondences...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Posterior < sorted[j].Posterior })
	fmt.Fprintln(w, "most suspicious correspondences:")
	for _, c := range sorted[:10] {
		verdict := "correct"
		if c.Faulty {
			verdict = "faulty"
		}
		fmt.Fprintf(w, "  %.3f  %-4s %-14s -> %-14s (%s)\n", c.Posterior, c.Mapping, c.From, c.To, verdict)
	}
	return nil
}
