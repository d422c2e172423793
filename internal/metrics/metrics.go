// Package metrics extracts the paper's evaluation metrics from finished
// simulations (§V-A3): execution time, throughput, total memory accesses,
// remote memory accesses — and renders results as aligned text tables.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"vprobe/internal/mem"
	"vprobe/internal/sim"
	"vprobe/internal/xen"
)

// AppRun summarises one application instance (one app-carrying VCPU).
type AppRun struct {
	App      string
	VCPU     xen.VCPUID
	Finished bool
	// ExecTime is wall-clock completion time for batch apps; for servers
	// it is the measurement horizon.
	ExecTime sim.Duration
	// Total and Remote are memory access counts (LLC misses and the
	// subset served by a remote node).
	Total, Remote float64
	// RemoteRatio is Remote/Total (access level).
	RemoteRatio float64
	// PageRemoteRatio is the paper's Fig. 1 page-level metric.
	PageRemoteRatio float64
	// Requests is the served request count for servers.
	Requests float64
	// LLCRef and Instructions are the VCPU's LLC reference and retired
	// instruction counts (Total is its LLC misses).
	LLCRef, Instructions float64
	// Migrations and NodeMoves count placements.
	Migrations, NodeMoves int
}

// CollectDomain extracts an AppRun per app-carrying VCPU of the domain.
// horizon is the measurement end (used for unfinished/server apps).
func CollectDomain(d *xen.Domain, horizon sim.Time) []AppRun {
	var out []AppRun
	for _, v := range d.VCPUs {
		if v.App == nil {
			continue
		}
		if v.App.Endless() && !v.App.Server {
			continue // hungry loops / guest housekeeping are not measured
		}
		r := AppRun{
			App:          v.App.Name,
			VCPU:         v.ID,
			Finished:     v.Done,
			Total:        v.Counters.Total(),
			Remote:       v.Counters.Remote,
			Requests:     v.RequestsServed(),
			Migrations:   v.Migrations,
			NodeMoves:    v.NodeMoves,
			LLCRef:       v.Counters.LLCRef,
			Instructions: v.Counters.Instructions,
		}
		if v.Done {
			r.ExecTime = sim.Duration(v.FinishTime)
		} else {
			r.ExecTime = sim.Duration(horizon)
		}
		if r.Total > 0 {
			r.RemoteRatio = r.Remote / r.Total
		}
		r.PageRemoteRatio = mem.RemotePageRatio(r.RemoteRatio, v.App.TouchesPerPage)
		out = append(out, r)
	}
	return out
}

// AvgExecSeconds returns the mean execution time over the runs.
func AvgExecSeconds(runs []AppRun) float64 {
	if len(runs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range runs {
		sum += r.ExecTime.Seconds()
	}
	return sum / float64(len(runs))
}

// MaxExecSeconds returns the latest completion (multi-threaded apps finish
// when their slowest thread does).
func MaxExecSeconds(runs []AppRun) float64 {
	var max float64
	for _, r := range runs {
		if s := r.ExecTime.Seconds(); s > max {
			max = s
		}
	}
	return max
}

// SumTotal returns the summed total memory accesses.
func SumTotal(runs []AppRun) float64 {
	var sum float64
	for _, r := range runs {
		sum += r.Total
	}
	return sum
}

// SumRemote returns the summed remote memory accesses.
func SumRemote(runs []AppRun) float64 {
	var sum float64
	for _, r := range runs {
		sum += r.Remote
	}
	return sum
}

// SumRequests returns the summed served requests.
func SumRequests(runs []AppRun) float64 {
	var sum float64
	for _, r := range runs {
		sum += r.Requests
	}
	return sum
}

// AvgRemoteRatio returns the access-weighted remote ratio.
func AvgRemoteRatio(runs []AppRun) float64 {
	t, r := SumTotal(runs), SumRemote(runs)
	if t <= 0 {
		return 0
	}
	return r / t
}

// AvgPageRemoteRatio returns the mean page-level remote ratio (Fig. 1).
func AvgPageRemoteRatio(runs []AppRun) float64 {
	if len(runs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range runs {
		sum += r.PageRemoteRatio
	}
	return sum / float64(len(runs))
}

// Normalize divides every value by the value at baseline; missing or zero
// baseline yields an all-zero map copy.
func Normalize(values map[string]float64, baseline string) map[string]float64 {
	out := make(map[string]float64, len(values))
	base := values[baseline]
	for k, v := range values {
		if base != 0 {
			out[k] = v / base
		} else {
			out[k] = 0
		}
	}
	return out
}

// Table is a simple column-aligned text table, the harness's output form
// for every reproduced figure/table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the formatted rows (for tests).
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// F formats a float for table cells with 3 decimals, trimming noise.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a ratio as a percentage with 2 decimals.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// SortedKeys returns map keys in sorted order for stable iteration.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
