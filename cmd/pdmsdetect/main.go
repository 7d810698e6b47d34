// Command pdmsdetect loads a PDMS description (JSON, see internal/netio),
// runs decentralized erroneous-mapping detection, and reports every
// (mapping, attribute) whose posterior falls below the threshold.
//
// Usage:
//
//	pdmsdetect -in network.json [-theta 0.5] [-maxlen 6] [-delta 0]
//	           [-attrs Creator,Title] [-probes] [-coarse] [-json]
//	pdmsdetect -example > network.json   # emit a sample description
//
// With -attrs unset, every attribute of every schema is analyzed. -delta 0
// derives Δ per origin schema as 1/(size−1). -probes gathers evidence by
// TTL flooding instead of structural enumeration; -coarse reports one value
// per mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/netio"
	"repro/internal/paper"
	"repro/internal/schema"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdmsdetect: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("pdmsdetect", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "network description (JSON); - for stdin")
		theta   = fs.Float64("theta", 0.5, "semantic threshold θ")
		maxLen  = fs.Int("maxlen", 6, "maximum cycle / parallel-path length")
		delta   = fs.Float64("delta", 0, "Δ (0 derives it from the schema size)")
		attrsF  = fs.String("attrs", "", "comma-separated analysis attributes (default: all)")
		probes  = fs.Bool("probes", false, "discover evidence by probe flooding instead of enumeration")
		coarse  = fs.Bool("coarse", false, "coarse granularity: one value per mapping")
		asJSON  = fs.Bool("json", false, "emit results as JSON")
		example = fs.Bool("example", false, "print an example network description and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *example {
		return netio.Save(stdout, paper.IntroNetwork())
	}
	if *in == "" {
		return fmt.Errorf("nothing to do: pass -in <file> or -example (see -h)")
	}
	if *probes && *coarse {
		return fmt.Errorf("-probes and -coarse cannot be combined: probe discovery is fine-grained only")
	}
	r := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	net, err := netio.Load(r)
	if err != nil {
		return err
	}

	attrs := analysisAttrs(net, *attrsF)
	var rep core.DiscoveryReport
	if *probes {
		rep, err = net.DiscoverByProbes(attrs, *maxLen, *delta)
	} else {
		g := core.FineGrained
		if *coarse {
			g = core.CoarseGrained
		}
		rep, err = net.Discover(core.DiscoverConfig{
			Attrs: attrs, MaxLen: *maxLen, Delta: *delta, Granularity: g,
		})
	}
	if err != nil {
		return err
	}
	res, err := net.RunDetection(core.DetectOptions{MaxRounds: 300})
	if err != nil {
		return err
	}

	type finding struct {
		Mapping   string  `json:"mapping"`
		Attribute string  `json:"attribute"`
		Posterior float64 `json:"posterior"`
	}
	var findings []finding
	for m, attrVals := range res.Posteriors {
		for a, p := range attrVals {
			if p < *theta {
				findings = append(findings, finding{Mapping: string(m), Attribute: string(a), Posterior: p})
			}
		}
	}
	// Posteriors is a map of maps: the order must be total, or attributes of
	// one mapping that tie on the posterior print in map order.
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Posterior != b.Posterior {
			return a.Posterior < b.Posterior
		}
		if a.Mapping != b.Mapping {
			return a.Mapping < b.Mapping
		}
		return a.Attribute < b.Attribute
	})

	if *asJSON {
		out := struct {
			Peers    int       `json:"peers"`
			Mappings int       `json:"mappings"`
			Evidence int       `json:"evidence"`
			Rounds   int       `json:"rounds"`
			Theta    float64   `json:"theta"`
			Findings []finding `json:"findings"`
		}{
			Peers:    net.NumPeers(),
			Mappings: net.Topology().NumEdges(),
			Evidence: rep.Positive + rep.Negative,
			Rounds:   res.Rounds,
			Theta:    *theta,
			Findings: findings,
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	var text strings.Builder
	fmt.Fprintf(&text, "network: %d peers, %d mappings; evidence: %d+/%d−; converged=%v in %d rounds\n\n",
		net.NumPeers(), net.Topology().NumEdges(), rep.Positive, rep.Negative, res.Converged, res.Rounds)
	if len(findings) == 0 {
		fmt.Fprintf(&text, "no mapping fell below θ=%.2f\n", *theta)
	} else {
		rows := make([][]string, 0, len(findings))
		for _, f := range findings {
			rows = append(rows, []string{f.Mapping, f.Attribute, fmt.Sprintf("%.3f", f.Posterior)})
		}
		fmt.Fprintln(&text, eval.Table([]string{"mapping", "attribute", "P(correct)"}, rows))
	}
	_, err = io.WriteString(stdout, text.String())
	return err
}

func analysisAttrs(net *core.Network, csv string) []schema.Attribute {
	if csv != "" {
		parts := strings.Split(csv, ",")
		out := make([]schema.Attribute, 0, len(parts))
		for _, p := range parts {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, schema.Attribute(p))
			}
		}
		return out
	}
	seen := make(map[schema.Attribute]bool)
	var out []schema.Attribute
	for _, p := range net.Peers() {
		for _, a := range p.Schema().Attributes() {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}
