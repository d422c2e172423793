package main

import (
	"testing"

	"vprobe/internal/exampletest"
)

// TestOutputGolden pins the example's stdout byte for byte.
func TestOutputGolden(t *testing.T) { exampletest.Golden(t, main) }
