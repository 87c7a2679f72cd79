package main

import "testing"

func TestNormalizedCancelsHostSpeed(t *testing.T) {
	walls := []float64{1.0, 1.2, 0.9}
	refs := []float64{0.05, 0.06, 0.045}
	base := normalized(walls, refs)
	if base < 0.999 || base > 1.001 {
		t.Fatalf("normalized = %g, want 1 (every job took 20 reference times)", base)
	}
	// A host half as fast slows the job and the kernel alike.
	slow := normalized([]float64{2.0, 2.4, 1.8}, []float64{0.1, 0.12, 0.09})
	if slow != base {
		t.Errorf("host half as fast: %g, want %g", slow, base)
	}
	// A program twice as slow on the same host doubles the figure.
	if got := normalized([]float64{2.0, 2.4, 1.8}, refs); got != 2*base {
		t.Errorf("program twice as slow: %g, want %g", got, 2*base)
	}
}

func TestRefAround(t *testing.T) {
	if got := refAround(0.04, 0.09); got < 0.06-1e-12 || got > 0.06+1e-12 {
		t.Errorf("refAround(0.04, 0.09) = %g, want 0.06", got)
	}
}

func TestRefKernelIsDeterministic(t *testing.T) {
	var a, b refBuffers
	x, y := refKernel(&a, 1), refKernel(&b, 1)
	if x != y || x == 0 {
		t.Errorf("seed 1 gave %g and %g", x, y)
	}
	if again := refKernel(&a, 1); again != x {
		t.Errorf("reused buffers gave %g, fresh %g", again, x)
	}
	if z := refKernel(&b, 2); z == x {
		t.Errorf("seeds 1 and 2 both gave %g", z)
	}
	if m := newRefMeter(2); m.seconds() <= 0 {
		t.Error("refMeter.seconds is not positive")
	}
}
