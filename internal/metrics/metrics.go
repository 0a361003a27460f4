// Package metrics provides latency recording, percentile summaries, and the
// formatted report tables the benchmark harness prints.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Recorder accumulates latency samples.
type Recorder struct {
	samples []time.Duration
	sorted  bool
}

// Add appends one sample.
func (r *Recorder) Add(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count reports the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Avg returns the mean latency (0 with no samples).
func (r *Recorder) Avg() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest-rank.
// p <= 0 returns the minimum sample (so Min is Percentile(0)), p >= 100 the
// maximum, and an empty recorder returns 0 for any p.
func (r *Recorder) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	if p <= 0 {
		return r.samples[0]
	}
	idx := int(p/100*float64(len(r.samples))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.samples) {
		idx = len(r.samples) - 1
	}
	return r.samples[idx]
}

// Min and Max return the extreme samples.
func (r *Recorder) Min() time.Duration { return r.Percentile(0) }

// Max returns the largest sample.
func (r *Recorder) Max() time.Duration { return r.Percentile(100) }

// Reset drops all samples, keeping the allocated capacity for reuse.
func (r *Recorder) Reset() {
	r.samples = r.samples[:0]
	r.sorted = false
}

// Summary formats the avg/p50/p75/p90/p95/p99 line used by the artifact's
// result reports.
func (r *Recorder) Summary() string {
	return fmt.Sprintf("avg %.2fms  50%% %.2fms  75%% %.2fms  90%% %.2fms  95%% %.2fms  99%% %.2fms",
		ms(r.Avg()), ms(r.Percentile(50)), ms(r.Percentile(75)),
		ms(r.Percentile(90)), ms(r.Percentile(95)), ms(r.Percentile(99)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Table is a formatted result table: one per reproduced figure/table.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FmtDur renders a duration in the most readable unit for tables.
func FmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fus", float64(d)/float64(time.Microsecond))
	}
}

// FmtRatio renders a speedup factor.
func FmtRatio(r float64) string { return fmt.Sprintf("%.2fx", r) }

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s\n\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "*%s*\n\n", t.Note)
	}
	row := func(cells []string) {
		fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	}
	row(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	fmt.Fprintln(w)
}
