// Package eval provides the experiment harness: precision/recall scoring,
// convergence traces, and plain-text tables and plots that render the
// paper's figures on a terminal.
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Judgment is one scored item: the system's belief that a mapping
// (correspondence) is correct, against ground truth.
type Judgment struct {
	Posterior float64
	// Faulty is the ground truth: the correspondence is semantically wrong.
	Faulty bool
}

// PrecisionPoint is one point of the Fig 12 curve.
type PrecisionPoint struct {
	Theta     float64
	Detected  int     // correspondences with posterior < θ
	TruePos   int     // detected and genuinely faulty
	Precision float64 // TruePos / Detected (1 when nothing detected)
	Recall    float64 // TruePos / total faulty
}

// PrecisionCurve scores the judgments at each threshold: an item is
// "detected erroneous" when its posterior falls below θ (§5.2).
func PrecisionCurve(items []Judgment, thetas []float64) []PrecisionPoint {
	faulty := 0
	for _, it := range items {
		if it.Faulty {
			faulty++
		}
	}
	out := make([]PrecisionPoint, 0, len(thetas))
	for _, th := range thetas {
		p := PrecisionPoint{Theta: th, Precision: 1}
		for _, it := range items {
			if it.Posterior < th {
				p.Detected++
				if it.Faulty {
					p.TruePos++
				}
			}
		}
		if p.Detected > 0 {
			p.Precision = float64(p.TruePos) / float64(p.Detected)
		}
		if faulty > 0 {
			p.Recall = float64(p.TruePos) / float64(faulty)
		}
		out = append(out, p)
	}
	return out
}

// Series is one named line of an experiment plot.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders rows as an aligned plain-text table. A row may have more
// cells than there are headers; the extra cells are printed.
func Table(headers []string, rows [][]string) string {
	var widths []int
	for _, r := range append([][]string{headers}, rows...) {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len([]rune(c)))
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		b.WriteString("\n")
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// Plot renders series as an ASCII chart of the given size. Each series is
// drawn with its own glyph; a legend follows the chart. X and Y ranges are
// shared across series.
func Plot(series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	empty := true
	for _, s := range series {
		for i := range s.X {
			empty = false
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if empty {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			cx := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(width-1)))
			cy := int(math.Round((s.Y[i] - minY) / (maxY - minY) * float64(height-1)))
			row := height - 1 - cy
			grid[row][cx] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.3f ┤", maxY)
	b.Write(grid[0])
	b.WriteString("\n")
	for r := 1; r < height-1; r++ {
		b.WriteString("         │")
		b.Write(grid[r])
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%8.3f ┤", minY)
	b.Write(grid[height-1])
	b.WriteString("\n")
	b.WriteString("         └" + strings.Repeat("─", width) + "\n")
	fmt.Fprintf(&b, "          %-*.3f%*.3f\n", width/2, minX, width-width/2, maxX)
	for si, s := range series {
		fmt.Fprintf(&b, "          %c %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}

// MeanAbsError returns the mean absolute difference between two posterior
// maps over the keys of want — the error measure of Fig 9. The terms are
// summed in key order: float addition is not associative, and map order
// would leak into the last bits.
func MeanAbsError(got, want map[string]float64) float64 {
	if len(want) == 0 {
		return 0
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += math.Abs(got[k] - want[k])
	}
	return sum / float64(len(want))
}
