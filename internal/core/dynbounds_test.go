package core

import (
	"testing"
)

func TestDynamicBoundsStartsAtPaperDefaults(t *testing.T) {
	d := NewDynamicBounds()
	if d.Current() != DefaultBounds() {
		t.Fatalf("initial bounds = %+v", d.Current())
	}
	// Too few samples: unchanged.
	d.Observe([]float64{10, 20})
	if d.Current() != DefaultBounds() {
		t.Fatal("bounds moved with insufficient samples")
	}
}

func TestDynamicBoundsAdaptsToPopulation(t *testing.T) {
	d := NewDynamicBounds()
	// A population twice as cache-hungry as the paper's calibration set.
	pop := []float64{4, 6, 8, 30, 32, 34, 44, 46, 48, 50}
	for i := 0; i < 5; i++ {
		d.Observe(pop)
	}
	b := d.Current()
	if b == DefaultBounds() {
		t.Fatal("bounds did not adapt")
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Low < 1 {
		t.Fatalf("low bound below floor: %v", b.Low)
	}
	if b.High <= b.Low {
		t.Fatalf("bounds inverted: %+v", b)
	}
	// The heaviest pressures classify as LLC-T, the lightest as LLC-FR.
	if b.Classify(50) != TypeT {
		t.Fatalf("pressure 50 classified %v with bounds %+v", b.Classify(50), b)
	}
	if b.Classify(0.5) != TypeFR {
		t.Fatalf("pressure 0.5 classified %v", b.Classify(0.5))
	}
}

func TestDynamicBoundsWindowSlides(t *testing.T) {
	d := NewDynamicBounds()
	d.Window = 16
	for i := 0; i < 10; i++ {
		d.Observe([]float64{5, 10, 15, 20})
	}
	if len(d.samples) > 16 {
		t.Fatalf("window not trimmed: %d samples", len(d.samples))
	}
}

func TestDynamicBoundsIgnoresIdle(t *testing.T) {
	d := NewDynamicBounds()
	d.Observe([]float64{0, 0, 0, -1})
	if len(d.samples) != 0 {
		t.Fatalf("idle pressures buffered: %d", len(d.samples))
	}
}

func TestDynamicBoundsDegeneratePopulation(t *testing.T) {
	d := NewDynamicBounds()
	// All-identical pressures: high falls back to 1.5x low.
	for i := 0; i < 4; i++ {
		d.Observe([]float64{10, 10, 10, 10})
	}
	b := d.Current()
	if b.High <= b.Low {
		t.Fatalf("degenerate population inverted bounds: %+v", b)
	}
}
