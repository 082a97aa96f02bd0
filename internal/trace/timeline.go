package trace

import (
	"fmt"
	"sort"
	"strings"

	"hpfdsm/internal/sim"
)

// MinGanttWidth is the narrowest chart Gantt draws.
const MinGanttWidth = 10

// Gantt renders the profile's timeline as an ASCII chart: one row per
// node, width character buckets across the run; each bucket shows the
// first letter of the label active longest within it, '.' for
// idle/synchronization gaps. The legend maps letters back to labels.
func (p *Profile) Gantt(width int) string {
	if len(p.spans) == 0 || width < MinGanttWidth {
		return "(empty timeline)\n"
	}
	var t0, t1 sim.Time
	maxNode := 0
	t0 = p.spans[0].Start
	for _, s := range p.spans {
		if s.Start < t0 {
			t0 = s.Start
		}
		if s.End > t1 {
			t1 = s.End
		}
		if s.Node > maxNode {
			maxNode = s.Node
		}
	}
	if t1 <= t0 {
		return "(empty timeline)\n"
	}
	bucket := float64(t1-t0) / float64(width)

	// Assign letters to labels in first-appearance order.
	letters := map[string]byte{}
	var order []string
	for _, s := range p.spans {
		if _, ok := letters[s.Label]; !ok {
			letters[s.Label] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"[len(letters)%52]
			order = append(order, s.Label)
		}
	}

	// Per node, per bucket: time occupied per label.
	rows := make([][]map[string]float64, maxNode+1)
	for n := range rows {
		rows[n] = make([]map[string]float64, width)
	}
	for _, s := range p.spans {
		b0 := int(float64(s.Start-t0) / bucket)
		b1 := int(float64(s.End-t0) / bucket)
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			lo := t0 + sim.Time(float64(b)*bucket)
			hi := t0 + sim.Time(float64(b+1)*bucket)
			if s.Start > lo {
				lo = s.Start
			}
			if s.End < hi {
				hi = s.End
			}
			if hi <= lo {
				continue
			}
			if rows[s.Node][b] == nil {
				rows[s.Node][b] = map[string]float64{}
			}
			rows[s.Node][b][s.Label] += float64(hi - lo)
		}
	}

	var out strings.Builder
	fmt.Fprintf(&out, "timeline %.2fms .. %.2fms (%c = %.3fms/char)\n",
		ms(t0), ms(t1), '1', bucket/1e6)
	for n := 0; n <= maxNode; n++ {
		fmt.Fprintf(&out, "node %2d |", n)
		for b := 0; b < width; b++ {
			m := rows[n][b]
			if len(m) == 0 {
				out.WriteByte('.')
				continue
			}
			var best string
			var bestT float64
			var keys []string
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if m[k] > bestT {
					best, bestT = k, m[k]
				}
			}
			out.WriteByte(letters[best])
		}
		out.WriteString("|\n")
	}
	out.WriteString("legend: ")
	for i, l := range order {
		if i > 0 {
			out.WriteString(", ")
		}
		fmt.Fprintf(&out, "%c=%s", letters[l], l)
	}
	out.WriteString("  .=idle/sync\n")
	return out.String()
}
