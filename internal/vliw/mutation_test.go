package vliw

import (
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/schedcheck"
)

// Mutation tests of the native tier armed with a bare resource certificate.
// A schedcheck certificate authorizes the machine to skip the dynamic §6
// resource and write-race checks; it does not — and by design cannot —
// vouch for an image mutated after certification. These tests corrupt a
// certified image and prove the guards a resource certificate leaves armed
// (PC bounds, memory bounds, divide by zero) still trap instead of silently
// corrupting state.

func certifyImage(t *testing.T, img *isa.Image) *schedcheck.Certificate {
	t.Helper()
	cert, err := schedcheck.Certify(img)
	if err != nil {
		t.Fatalf("pre-mutation image should certify: %v", err)
	}
	return cert
}

// runNativeOn builds a machine over the (possibly mutated) image, arms the
// native tier with the stale certificate — of either grade — and runs.
func runNativeOn(t *testing.T, img *isa.Image, cert Certificate) error {
	t.Helper()
	m := New(img)
	if err := m.UseNativeCertificate(cert); err != nil {
		t.Fatal(err)
	}
	if m.Tier() != TierNative {
		t.Fatalf("certificate accepted but Tier() = %v, want native", m.Tier())
	}
	_, _, err := m.Run()
	return err
}

func wantTrap(t *testing.T, err error, code TrapCode) {
	t.Helper()
	if err == nil {
		t.Fatalf("mutated certified image ran clean; want %s trap", code)
	}
	f, ok := err.(*Fault)
	if !ok {
		t.Fatalf("want *Fault, got %T: %v", err, err)
	}
	if f.Code != code {
		t.Fatalf("trap code = %s, want %s (%v)", f.Code, code, err)
	}
}

const mutationSrc = `
var a [8]int
func main() int {
	var s int = 0
	for (var i int = 0; i < 8; i = i + 1) { a[i] = i * 3 }
	for (var i int = 0; i < 8; i = i + 1) { s = s + a[i] }
	return s / (a[1] + 1)
}`

// buildNoSpec compiles with speculative loads disabled so every load in the
// image is a plain (trapping) LOAD the mem-bounds mutation can target.
func buildNoSpec(t *testing.T) *isa.Image {
	t.Helper()
	cfg := mach.Trace7()
	cfg.SpeculativeLoads = false
	return build(t, mutationSrc, cfg)
}

func TestCertifiedMutationWildBranch(t *testing.T) {
	img := buildNoSpec(t)
	cert := certifyImage(t, img)
	if err := runNativeOn(t, img, cert); err != nil {
		t.Fatalf("sanity: unmutated certified run failed: %v", err)
	}

	// Send every branch to a word far outside the image: the first taken
	// control transfer is a wild jump.
	n := 0
	for i := range img.Instrs {
		for si := range img.Instrs[i].Slots {
			o := &img.Instrs[i].Slots[si].Op
			switch o.Kind {
			case mach.OpJmp, mach.OpBrT, mach.OpCall:
				o.Target = len(img.Instrs) + 1000
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("image has no branch to corrupt")
	}
	wantTrap(t, runNativeOn(t, img, cert), TrapBadPC)
}

func TestCertifiedMutationMemBounds(t *testing.T) {
	img := buildNoSpec(t)
	cert := certifyImage(t, img)
	if err := runNativeOn(t, img, cert); err != nil {
		t.Fatalf("sanity: unmutated certified run failed: %v", err)
	}

	// Push a load's offset far past the top of RAM.
	mutated := false
	for i := range img.Instrs {
		for si := range img.Instrs[i].Slots {
			o := &img.Instrs[i].Slots[si].Op
			if o.Kind == ir.Load && !mutated {
				o.B = mach.ImmArg(1 << 30)
				mutated = true
			}
		}
	}
	if !mutated {
		t.Fatal("image has no load to corrupt")
	}
	wantTrap(t, runNativeOn(t, img, cert), TrapMemBounds)
}

func TestCertifiedMutationDivZero(t *testing.T) {
	img := buildNoSpec(t)
	cert := certifyImage(t, img)
	if err := runNativeOn(t, img, cert); err != nil {
		t.Fatalf("sanity: unmutated certified run failed: %v", err)
	}

	// Force the divisor of the program's divide to zero.
	mutated := false
	for i := range img.Instrs {
		for si := range img.Instrs[i].Slots {
			o := &img.Instrs[i].Slots[si].Op
			if o.Kind == ir.Div && !mutated {
				o.B = mach.ImmArg(0)
				mutated = true
			}
		}
	}
	if !mutated {
		t.Fatal("image has no divide to corrupt")
	}
	wantTrap(t, runNativeOn(t, img, cert), TrapDivZero)
}

// TestCertificateRejectsForeignImage proves a certificate cannot be
// laundered across images: arming a machine with a certificate minted for a
// different image fails, and the machine stays on the checked tier.
func TestCertificateRejectsForeignImage(t *testing.T) {
	img1 := buildNoSpec(t)
	img2 := buildNoSpec(t)
	cert := certifyImage(t, img1)
	m := New(img2)
	if err := m.UseNativeCertificate(cert); err == nil {
		t.Fatal("certificate for a different image was accepted")
	}
	if m.Tier() != TierChecked {
		t.Fatalf("rejected certificate left the machine on the %v tier", m.Tier())
	}
}
