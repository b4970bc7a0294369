package safecheck

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/isa"
	"github.com/multiflow-repro/trace/internal/mach"
	"github.com/multiflow-repro/trace/internal/schedcheck"
)

// CertLevel grades how much of the dynamic checking a proof has replaced.
type CertLevel int

const (
	// CertNone: no certificate; the simulator runs fully checked.
	CertNone CertLevel = iota
	// CertResource: schedcheck's proof; resource/race checks are skipped.
	CertResource
	// CertSafe: CertResource plus per-site safety proofs; proven sites
	// also skip bounds/alignment/zero-divisor guards.
	CertSafe
)

func (l CertLevel) String() string {
	switch l {
	case CertResource:
		return "resource"
	case CertSafe:
		return "safe"
	}
	return "none"
}

// siteKey identifies one issue slot; (unit, beat) is unique within a word.
type siteKey struct {
	word int
	unit mach.Unit
	beat uint8
}

// A SafeCertificate is proof that a specific linked image holds a resource
// certificate (schedcheck) AND that the sites in its bitmask can never make
// an effective address escape RAM, break alignment, or divide by zero. The
// simulator accepts it as authorization to run guard-free variants of
// exactly those sites; unproven sites keep every dynamic guard, so a
// partially-proven image still runs correctly, just with fewer guards
// removed.
//
// Like the resource certificate it extends, a SafeCertificate identifies
// the image by pointer and cannot, by design, detect mutation of the image
// after certification. The contract is strictly weaker than the resource
// certificate's: at a proven site the bounds, alignment, and zero-divisor
// guards are GONE, so a post-certification mutation that retargets a proven
// load out of RAM is caught only by the Go runtime's slice bounds / divide
// checks, which the native tier converts back into the matching Fault
// (TrapMemBounds / TrapDivZero) at a recover boundary — the blast radius is
// the faulting context, never the process. PC bounds, bad-op, cycle-limit,
// and every guard at unproven sites remain armed; the mutation tests in
// internal/vliw pin all of this down.
type SafeCertificate struct {
	img  *isa.Image
	res  *schedcheck.Certificate
	rep  *Report
	safe map[siteKey]bool
}

// CertifiedImage returns the image this certificate covers. It implements
// vliw.Certificate (and, with SafeSite, vliw.SafetyCertificate).
func (c *SafeCertificate) CertifiedImage() *isa.Image { return c.img }

// Resource returns the underlying schedcheck certificate.
func (c *SafeCertificate) Resource() *schedcheck.Certificate { return c.res }

// Report returns the safety analysis report backing the certificate.
func (c *SafeCertificate) Report() *Report { return c.rep }

// Level returns CertSafe (the type exists only at that grade).
func (c *SafeCertificate) Level() CertLevel { return CertSafe }

// SafeSite reports whether the site issued at (word, unit, beat) is proven
// safe — i.e. whether the simulator may run its guard-free variant.
func (c *SafeCertificate) SafeSite(word int, unit mach.Unit, beat uint8) bool {
	return c.safe[siteKey{word, unit, beat}]
}

// ProvenSites returns how much of the image the bitmask covers.
func (c *SafeCertificate) ProvenSites() (proven, total int) {
	return c.rep.Proven(), c.rep.Total()
}

// Certify mints a graded certificate from the analysis report. It requires
// the resource certificate for the same image — the latency-free transfer
// function the analysis uses is only sound on schedcheck-clean schedules —
// and succeeds even when nothing was proven: a certificate with an empty
// bitmask arms the native tier exactly like the bare resource certificate.
func (r *Report) Certify(res *schedcheck.Certificate) (*SafeCertificate, error) {
	if r.img == nil {
		return nil, fmt.Errorf("safecheck: report records no image")
	}
	if res == nil || res.CertifiedImage() != r.img {
		return nil, fmt.Errorf("safecheck: resource certificate does not cover this image")
	}
	c := &SafeCertificate{img: r.img, res: res, rep: r, safe: map[siteKey]bool{}}
	for i := range r.Sites {
		s := &r.Sites[i]
		if s.Exec() && s.Proven {
			c.safe[siteKey{s.Word, s.Unit, uint8(s.Beat)}] = true
		}
	}
	return c, nil
}

// Certify runs both proofs on the image — schedcheck's resource/race check,
// then the safety analysis — and mints the graded certificate.
func Certify(img *isa.Image) (*SafeCertificate, error) {
	res, err := schedcheck.Certify(img)
	if err != nil {
		return nil, err
	}
	return Analyze(img, Options{}).Certify(res)
}
