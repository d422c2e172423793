package core

import "sort"

// DynamicBounds implements the paper's §VI future-work item: adapting the
// classification bounds to the running workload instead of fixing them at
// (3, 20). It tracks the distribution of observed pressures over a sliding
// window of sampling periods and re-derives the bounds from quantiles, so
// the LLC-T / LLC-FI / LLC-FR split follows the population actually
// present rather than an offline calibration.
//
// The quantile targets default to the shape of the paper's calibration:
// pressures below the 25th percentile of the *active* (non-negligible)
// population behave like LLC-FR, and the top ~30% like LLC-T.
type DynamicBounds struct {
	// Window is the number of recent samples kept (across all VCPUs).
	Window int
	// LowQ and HighQ are the quantiles mapped to the low/high bounds.
	LowQ, HighQ float64
	// Floor keeps the low bound from collapsing when every VCPU is
	// memory-intensive; pressures below Floor are always LLC-FR.
	Floor float64

	samples []float64
	// active is Observe's reusable buffer of the samples at or above
	// Floor.
	active []float64
	bounds Bounds
}

// NewDynamicBounds returns an adaptor seeded with the paper's static
// bounds; until enough samples arrive, Current() returns those.
func NewDynamicBounds() *DynamicBounds {
	return &DynamicBounds{
		Window: 256,
		LowQ:   0.25,
		HighQ:  0.70,
		Floor:  1.0,
		bounds: DefaultBounds(),
	}
}

// Observe records the pressures measured in one sampling period and
// re-derives the bounds once at least 8 active samples are buffered.
func (d *DynamicBounds) Observe(pressures []float64) {
	for _, p := range pressures {
		if p <= 0 {
			continue
		}
		d.samples = append(d.samples, p) //vet:alloc ring grows to Window once, then slides in place
	}
	if d.Window > 0 && len(d.samples) > d.Window {
		// Slide the window down in place, so the buffer stops growing.
		n := copy(d.samples, d.samples[len(d.samples)-d.Window:])
		d.samples = d.samples[:n]
	}
	active := d.active[:0]
	for _, p := range d.samples {
		if p >= d.Floor {
			active = append(active, p) //vet:alloc d.active is reused; grows to Window during warmup
		}
	}
	d.active = active
	if len(active) < 8 {
		return
	}
	sort.Float64s(active)
	//vet:alloc per-period quantile helper; non-escaping, and OnPeriod cadence is 1s simulated
	q := func(f float64) float64 {
		pos := f * float64(len(active)-1)
		lo := int(pos)
		if lo+1 >= len(active) {
			return active[len(active)-1]
		}
		frac := pos - float64(lo)
		return active[lo]*(1-frac) + active[lo+1]*frac
	}
	low := q(d.LowQ)
	high := q(d.HighQ)
	if low < d.Floor {
		low = d.Floor
	}
	if high <= low {
		high = low * 1.5
	}
	d.bounds = Bounds{Low: low, High: high}
}

// Current returns the bounds in effect.
func (d *DynamicBounds) Current() Bounds { return d.bounds }
