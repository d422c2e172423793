package vprobe

import (
	"fmt"
	"strings"
	"time"

	"vprobe/internal/metrics"
	"vprobe/internal/sim"
)

// AppResult summarises one application instance after a run.
type AppResult struct {
	// VM and App identify the instance.
	VM  string
	App string
	// Finished reports whether the app completed its work.
	Finished bool
	// ExecTime is the completion time (or the measurement horizon for
	// unfinished and server apps).
	ExecTime time.Duration
	// TotalAccesses and RemoteAccesses are memory access counts.
	TotalAccesses, RemoteAccesses float64
	// RemoteRatio is the access-level remote fraction.
	RemoteRatio float64
	// PageRemoteRatio is the paper's Fig. 1 page-level remote metric.
	PageRemoteRatio float64
	// Requests is the served request count (servers only).
	Requests float64
	// Migrations and NodeMoves count VCPU placement changes.
	Migrations, NodeMoves int
}

// Report is the outcome of a Simulator run.
type Report struct {
	// Scheduler that produced the run.
	Scheduler Scheduler
	// End is the virtual time the run stopped at.
	End time.Duration
	// Apps holds one entry per measured application instance (endless
	// background load — hungry loops, guest housekeeping — is omitted).
	Apps []AppResult
	// OverheadFraction is the paper's Table III metric: PMU collection
	// plus partitioning time as a fraction of total execution time
	// (zero for the Credit scheduler).
	OverheadFraction float64
	// CPUBusy and CPUIdle aggregate PCPU time.
	CPUBusy, CPUIdle time.Duration
}

func buildReport(s *Simulator, end sim.Time) *Report {
	r := &Report{
		Scheduler:        s.scheduler,
		End:              time.Duration(end) * time.Microsecond,
		OverheadFraction: s.h.OverheadFraction(),
	}
	if r.Scheduler == "" {
		r.Scheduler = SchedulerCredit
	}
	for _, d := range s.h.Domains {
		for _, run := range metrics.CollectDomain(d, end) {
			r.Apps = append(r.Apps, AppResult{
				VM:              d.Name,
				App:             run.App,
				Finished:        run.Finished,
				ExecTime:        time.Duration(run.ExecTime) * time.Microsecond,
				TotalAccesses:   run.Total,
				RemoteAccesses:  run.Remote,
				RemoteRatio:     run.RemoteRatio,
				PageRemoteRatio: run.PageRemoteRatio,
				Requests:        run.Requests,
				Migrations:      run.Migrations,
				NodeMoves:       run.NodeMoves,
			})
		}
	}
	for _, p := range s.h.PCPUs {
		r.CPUBusy += time.Duration(p.BusyTime) * time.Microsecond
		r.CPUIdle += time.Duration(p.IdleTime) * time.Microsecond
	}
	return r
}

// VMApps returns the results for one VM.
func (r *Report) VMApps(vm string) []AppResult {
	var out []AppResult
	for _, a := range r.Apps {
		if a.VM == vm {
			out = append(out, a)
		}
	}
	return out
}

// AllFinished reports whether every measured app completed.
func (r *Report) AllFinished() bool {
	for _, a := range r.Apps {
		if !a.Finished {
			return false
		}
	}
	return true
}

// MeanExecTime averages completion time over the given VM's apps (all VMs
// when vm is empty).
func (r *Report) MeanExecTime(vm string) time.Duration {
	var sum time.Duration
	n := 0
	for _, a := range r.Apps {
		if vm != "" && a.VM != vm {
			continue
		}
		sum += a.ExecTime
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// TotalRequests sums served requests (servers).
func (r *Report) TotalRequests() float64 {
	var sum float64
	for _, a := range r.Apps {
		sum += a.Requests
	}
	return sum
}

// String renders the report as an aligned table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler=%s end=%v busy=%v idle=%v overhead=%.5f%%\n",
		r.Scheduler, r.End.Round(time.Millisecond),
		r.CPUBusy.Round(time.Millisecond), r.CPUIdle.Round(time.Millisecond),
		100*r.OverheadFraction)
	t := metrics.NewTable("", "vm", "app", "done", "exec", "remote", "page-remote", "moves")
	for _, a := range r.Apps {
		done := "yes"
		if !a.Finished {
			done = "no"
		}
		t.AddRow(a.VM, a.App, done,
			a.ExecTime.Round(time.Millisecond).String(),
			metrics.Pct(a.RemoteRatio), metrics.Pct(a.PageRemoteRatio),
			fmt.Sprintf("%d", a.NodeMoves))
	}
	b.WriteString(t.String())
	return b.String()
}
