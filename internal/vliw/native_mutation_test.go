package vliw

import (
	"context"
	"testing"

	"github.com/multiflow-repro/trace/internal/ir"
	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/safecheck"
)

// Mutation tests of the native (closure-threaded) tier at both certificate
// grades. The translator bakes the (possibly corrupted) operands into
// closures at translation time, and under a SafeCertificate it also deletes
// the bounds, alignment, and zero-divisor guards at every proven site, so a
// post-certification mutation that retargets a proven load out of RAM is
// caught only by the Go runtime's slice-bounds and divide checks. These
// tests corrupt exactly such proven sites and pin down the promised blast
// radius: the run (or the one context in a RunMany batch) dies with the
// matching Fault, and a certificate minted for one image never arms a
// translation of another.
//
// Each case runs twice. TestSafe* arms the native tier with the graded
// SafeCertificate, so the corrupted site runs guard-free and the trap comes
// from the runtime check that safeTierFault converts. TestNative* arms it
// with the bare resource certificate the SafeCertificate extends, so the
// same corruption must trip the guard the translator kept. The trap code is
// identical either way.

const safeMutationSrc = `
var a [8]int
func main() int {
	var s int = 0
	for (var i int = 0; i < 8; i = i + 1) { a[i] = i * 3 }
	for (var i int = 0; i < 8; i = i + 1) { s = s + a[i] }
	return s / 3
}`

// buildSafeCertified compiles the mutation program (speculation off, so
// every load is a plain trapping LOAD) and mints its graded certificate.
func buildSafeCertified(t *testing.T) (*isa.Image, *safecheck.SafeCertificate) {
	t.Helper()
	cfg := mach.Trace7()
	cfg.SpeculativeLoads = false
	img := build(t, safeMutationSrc, cfg)
	cert, err := safecheck.Certify(img)
	if err != nil {
		t.Fatalf("pre-mutation image should certify safe: %v", err)
	}
	return img, cert
}

// grade returns the certificate a case arms the native tier with: the
// SafeCertificate itself, or the bare resource certificate it extends.
func grade(cert *safecheck.SafeCertificate, safe bool) Certificate {
	if safe {
		return cert
	}
	return cert.Resource()
}

// provenOp returns a proven-safe site of one of the given kinds — the kind
// of site whose guards a SafeCertificate deletes — failing the test if the
// image has none (the mutation would silently test the still-guarded path).
func provenOp(t *testing.T, img *isa.Image, cert *safecheck.SafeCertificate, kinds ...ir.OpKind) *mach.Op {
	t.Helper()
	for w := range img.Instrs {
		for si := range img.Instrs[w].Slots {
			s := &img.Instrs[w].Slots[si]
			for _, k := range kinds {
				if s.Op.Kind == k && cert.SafeSite(w, s.Unit, s.Beat) {
					return &s.Op
				}
			}
		}
	}
	t.Fatalf("image has no proven site of kinds %v to corrupt", kinds)
	return nil
}

func testProvesSites(t *testing.T, safe bool) {
	img, cert := buildSafeCertified(t)
	if p, total := cert.ProvenSites(); p == 0 {
		t.Fatalf("mutation program proves 0/%d sites; the mutation tests would not exercise guard-free code", total)
	}
	if err := runNativeOn(t, img, grade(cert, safe)); err != nil {
		t.Fatalf("sanity: unmutated native run failed: %v", err)
	}
}

func TestSafeTierProvesSites(t *testing.T)   { testProvesSites(t, true) }
func TestNativeTierProvesSites(t *testing.T) { testProvesSites(t, false) }

// TestNativeMatchesChecked is the in-package equivalence smoke: the
// translated run under either certificate grade must match the checked
// interpreter bit-for-bit — exit, output, and every Stats counter (the full
// oracle lives in internal/fuzz and certified_test.go; this one catches
// translator regressions where they are introduced).
func TestNativeMatchesChecked(t *testing.T) {
	img, cert := buildSafeCertified(t)

	mc := New(img)
	exitC, outC, errC := mc.Run()
	if errC != nil {
		t.Fatalf("checked run failed: %v", errC)
	}
	statsC := mc.Stats

	for _, safe := range []bool{false, true} {
		mn := New(img)
		if err := mn.UseNativeCertificate(grade(cert, safe)); err != nil {
			t.Fatal(err)
		}
		exitN, outN, errN := mn.Run()
		if errN != nil {
			t.Fatalf("native run (safe certificate %t) failed: %v", safe, errN)
		}
		if exitN != exitC || outN != outC {
			t.Fatalf("native (safe certificate %t) diverges: exit %d/%d out %q/%q", safe, exitN, exitC, outN, outC)
		}
		if mn.Stats != statsC {
			t.Fatalf("native (safe certificate %t) stats diverge:\nchecked %+v\nnative  %+v", safe, statsC, mn.Stats)
		}
	}
}

func testLoadOutOfBounds(t *testing.T, safe bool) {
	for _, tc := range []struct {
		name string
		off  int32
	}{{"high", 1 << 30}, {"negative", -(1 << 30)}} {
		t.Run(tc.name, func(t *testing.T) {
			img, cert := buildSafeCertified(t)
			o := provenOp(t, img, cert, ir.Load, ir.LoadSpec)
			o.B = mach.ImmArg(tc.off)
			wantTrap(t, runNativeOn(t, img, grade(cert, safe)), TrapMemBounds)
		})
	}
}

func TestSafeMutationLoadOutOfBounds(t *testing.T)   { testLoadOutOfBounds(t, true) }
func TestNativeMutationLoadOutOfBounds(t *testing.T) { testLoadOutOfBounds(t, false) }

func testStoreOutOfBounds(t *testing.T, safe bool) {
	img, cert := buildSafeCertified(t)
	o := provenOp(t, img, cert, ir.Store)
	o.B = mach.ImmArg(1 << 30)
	wantTrap(t, runNativeOn(t, img, grade(cert, safe)), TrapMemBounds)
}

func TestSafeMutationStoreOutOfBounds(t *testing.T)   { testStoreOutOfBounds(t, true) }
func TestNativeMutationStoreOutOfBounds(t *testing.T) { testStoreOutOfBounds(t, false) }

func testDivZero(t *testing.T, safe bool) {
	img, cert := buildSafeCertified(t)
	o := provenOp(t, img, cert, ir.Div, ir.Rem)
	o.B = mach.ImmArg(0)
	wantTrap(t, runNativeOn(t, img, grade(cert, safe)), TrapDivZero)
}

func TestSafeMutationDivZero(t *testing.T)   { testDivZero(t, true) }
func TestNativeMutationDivZero(t *testing.T) { testDivZero(t, false) }

// testGuardsStayArmedElsewhere proves the translator deletes ONLY the
// per-site guards the bitmask covers: a wild branch target baked into a
// translated closure — a condition no safety proof discharges — still hits
// the always-on PC bounds guard.
func testGuardsStayArmedElsewhere(t *testing.T, safe bool) {
	img, cert := buildSafeCertified(t)
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
	wantTrap(t, runNativeOn(t, img, grade(cert, safe)), TrapBadPC)
}

func TestSafeMutationGuardsStayArmedElsewhere(t *testing.T) {
	testGuardsStayArmedElsewhere(t, true)
}
func TestNativeMutationGuardsStayArmedElsewhere(t *testing.T) {
	testGuardsStayArmedElsewhere(t, false)
}

// testContainedInRunMany proves the blast radius of a fault in a translated
// context is one context: the mutated tenant retires with its Fault while
// its neighbor runs to a clean halt.
func testContainedInRunMany(t *testing.T, safe bool) {
	img, cert := buildSafeCertified(t)
	cfg := mach.Trace7()
	cfg.SpeculativeLoads = false
	clean := build(t, safeMutationSrc, cfg)

	o := provenOp(t, img, cert, ir.Load, ir.LoadSpec)
	o.B = mach.ImmArg(1 << 30)

	m := New(img)
	if err := m.ResetMany([]*isa.Image{img, clean}); err != nil {
		t.Fatal(err)
	}
	if err := m.UseNativeCertificate(grade(cert, safe)); err != nil {
		t.Fatal(err)
	}
	rs, err := m.RunMany(context.Background())
	if err != nil {
		t.Fatalf("whole-machine RunMany error: %v", err)
	}
	wantTrap(t, rs[0].Err, TrapMemBounds)
	if rs[1].Err != nil {
		t.Fatalf("clean neighbor context disturbed: %v", rs[1].Err)
	}
	if rs[1].Exit != 28 {
		t.Fatalf("clean neighbor exit = %d, want 28", rs[1].Exit)
	}
}

func TestSafeMutationContainedInRunMany(t *testing.T)   { testContainedInRunMany(t, true) }
func TestNativeMutationContainedInRunMany(t *testing.T) { testContainedInRunMany(t, false) }

// testRejectsForeignImage proves a native plan cannot be laundered across
// images.
func testRejectsForeignImage(t *testing.T, safe bool) {
	_, cert := buildSafeCertified(t)
	cfg := mach.Trace7()
	cfg.SpeculativeLoads = false
	img2 := build(t, safeMutationSrc, cfg)
	m := New(img2)
	if err := m.UseNativeCertificate(grade(cert, safe)); err == nil {
		t.Fatal("native-tier certificate for a different image was accepted")
	}
	if m.Tier() != TierChecked {
		t.Fatalf("Tier() = %v after rejected certificate, want checked", m.Tier())
	}
}

func TestSafeCertificateRejectsForeignImage(t *testing.T)   { testRejectsForeignImage(t, true) }
func TestNativeCertificateRejectsForeignImage(t *testing.T) { testRejectsForeignImage(t, false) }
