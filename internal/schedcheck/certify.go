package schedcheck

import (
	"fmt"

	"github.com/multiflow-repro/trace/internal/isa"
)

// A Certificate is proof that a specific linked image passed the full
// whole-image static check with zero error-severity findings. The simulator
// (internal/vliw) accepts a Certificate as authorization to skip its dynamic
// §6 resource and write-race checks — the no-interlock contract has already
// been proven over every path, including the cold compensation paths a run
// never executes, so re-checking each beat buys nothing.
//
// The certificate identifies the image by pointer: it certifies this exact
// decoded artifact, not some structurally equal copy, and the machine
// rejects a certificate minted for a different image. It cannot, by design,
// detect mutation of the image after certification — that is what the
// guards a resource certificate leaves armed (PC bounds, memory
// bounds/alignment, divide by zero, bad opcodes) are for, and what the
// mutation tests in internal/vliw exercise.
type Certificate struct {
	img *isa.Image
	rep *Report
}

// CertifiedImage returns the image this certificate covers. It implements
// vliw.Certificate.
func (c *Certificate) CertifiedImage() *isa.Image { return c.img }

// Report returns the underlying check report (for summaries / warnings).
func (c *Certificate) Report() *Report { return c.rep }

// Certify runs the full static check on the image and, if it finds no
// error-severity violations, mints a certificate for it. Warnings do not
// block certification: they flag survivable facts, not state corruption.
func Certify(img *isa.Image) (*Certificate, error) {
	return Check(img, Options{}).Certify()
}

// Certify mints a certificate from an existing report, so callers that
// already ran Check (the fuzz oracle's lint stage, tracelint) need not
// re-analyze the image. It fails if the report carries error-severity
// findings or predates the Certify API (no image recorded).
func (r *Report) Certify() (*Certificate, error) {
	if r.img == nil {
		return nil, fmt.Errorf("schedcheck: report records no image; use Check or Certify")
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("image not certifiable: %w", err)
	}
	return &Certificate{img: r.img, rep: r}, nil
}
