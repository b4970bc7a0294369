package vliw

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"github.com/multiflow-repro/trace/internal/mach"
)

// Checkpoint/restore. A Context is *all* of a program's state — the paper's
// machine has no hidden microarchitectural state ("all of the state of the
// processor is either in general registers or in main memory", §8.2), and
// the simulator widens that only by the self-draining write pipeline and
// the private memory-system view, both of which are explicit fields. A
// snapshot therefore captures execution exactly: restore it onto a machine
// reset to the same image and the run continues bit-identically — exit,
// output, and every Stats counter equal to an uninterrupted run's.
//
// The encoding is versioned and self-describing:
//
//	magic "TRACESNP" | version u16 | image fingerprint [32]byte
//	| payload length u64 | payload SHA-256 [32]byte | payload
//
// and the payload is a sequence of tagged, length-prefixed sections (tag
// u8, length u64, body), all integers little-endian. Restore refuses a
// snapshot whose magic, version, image fingerprint, checksum, or section
// structure does not match — with attribution, never silently. What is NOT
// captured: machine-level experiment knobs (DMA stream position, timer
// interrupts, FlushOnSwitch) and instrumentation hooks; runs using those
// are not resumable. The execution tier is also not captured — it is a
// checking and dispatch mode, not architectural state, and a resumed run
// must present its own Certificate (checked and native execution are
// result-identical, so a snapshot taken on either tier resumes on either).

// snapMagic identifies a Context snapshot stream.
const snapMagic = "TRACESNP"

// SnapshotVersion is the current encoding version. Any change to the
// section set, a section's layout, or the Stats field set bumps it; Restore
// accepts exactly this version (checkpoints are short-lived operational
// state, not archives, so there is no cross-version migration).
const SnapshotVersion = 1

// Section tags of encoding version 1.
const (
	secCore     = 1  // asid, pc, beat, halted, exit
	secIRegs    = 2  // integer register banks
	secFRegs    = 3  // floating register banks
	secSF       = 4  // store-file banks
	secBB       = 5  // branch-bank bits
	secPending  = 6  // in-flight register-write pipeline
	secMem      = 7  // data memory
	secBankBusy = 8  // RAM bank busy windows
	secICache   = 9  // instruction cache tags + ASIDs
	secDTLB     = 10 // data TLB
	secITLB     = 11 // instruction TLB
	secStats    = 12 // performance counters
	secOut      = 13 // captured output so far
)

const snapHeaderLen = 8 + 2 + 32 + 8 + 32

// pendingWireLen is one serialized pendingWrite: beat i64, bank/board/idx/
// spec u8, val u64, pc i64.
const pendingWireLen = 8 + 4 + 8 + 8

// ErrStopped reports that a run paused at Machine.StopBeat with the context
// intact: Snapshot captures it for a later resume. It is a pause, not a
// failure — the scheduler layers (core, serve) translate it into a
// checkpoint rather than an error response.
type ErrStopped struct {
	Beat int64 // context virtual clock at the pause
	PC   int   // next instruction to execute
}

func (e *ErrStopped) Error() string {
	return fmt.Sprintf("run stopped for checkpoint at word=%d beat=%d", e.PC, e.Beat)
}

// ErrBadSnapshot reports a snapshot Restore refused, with attribution: the
// specific check that failed (magic, version, image, checksum, or a
// structural section check) and what was expected.
type ErrBadSnapshot struct {
	Field string
	Msg   string
}

func (e *ErrBadSnapshot) Error() string {
	return fmt.Sprintf("vliw: snapshot rejected [%s]: %s", e.Field, e.Msg)
}

// Snapshot serializes the context's complete execution state. The context
// must have executed (or been restored) on its current image: a pristine
// context has nothing meaningful to capture — boot it by running first.
// Callers snapshot after a run returns (paused via Machine.StopBeat,
// canceled, cycle-limited, trapped, or halted); at that point the banked Stats
// are authoritative and the snapshot is a complete resume point.
func (c *Context) Snapshot() ([]byte, error) {
	if !c.booted {
		return nil, &ErrBadSnapshot{Field: "state", Msg: "context has not executed: nothing to capture (beat 0 pristine state is the image itself)"}
	}
	// The native tier keeps in-flight writes in its retire ring; fold them
	// back into c.pending so the wire format is tier-independent.
	c.nRingFlush()

	var payload bytes.Buffer
	sec := func(tag byte, body func(*bytes.Buffer)) {
		var b bytes.Buffer
		body(&b)
		payload.WriteByte(tag)
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(b.Len()))
		payload.Write(lenBuf[:])
		payload.Write(b.Bytes())
	}
	le := binary.LittleEndian

	sec(secCore, func(b *bytes.Buffer) {
		b.WriteByte(c.asid)
		binary.Write(b, le, int64(c.pc))
		binary.Write(b, le, c.beat)
		if c.halted {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		binary.Write(b, le, c.exit)
	})
	sec(secIRegs, func(b *bytes.Buffer) { binary.Write(b, le, c.iregs) })
	sec(secFRegs, func(b *bytes.Buffer) { binary.Write(b, le, c.fregs) })
	sec(secSF, func(b *bytes.Buffer) { binary.Write(b, le, c.sf) })
	sec(secBB, func(b *bytes.Buffer) { binary.Write(b, le, c.bb) })
	sec(secPending, func(b *bytes.Buffer) {
		binary.Write(b, le, uint32(len(c.pending)))
		for _, w := range c.pending {
			binary.Write(b, le, w.beat)
			b.WriteByte(byte(w.dst.Bank))
			b.WriteByte(w.dst.Board)
			b.WriteByte(w.dst.Idx)
			if w.spec {
				b.WriteByte(1)
			} else {
				b.WriteByte(0)
			}
			binary.Write(b, le, w.val)
			binary.Write(b, le, int64(w.pc))
		}
	})
	sec(secMem, func(b *bytes.Buffer) { b.Write(c.mem) })
	sec(secBankBusy, func(b *bytes.Buffer) { binary.Write(b, le, c.bankBusy) })
	sec(secICache, func(b *bytes.Buffer) {
		binary.Write(b, le, uint32(len(c.itags)))
		for _, t := range c.itags {
			binary.Write(b, le, int64(t))
		}
		b.Write(c.iasids)
	})
	sec(secDTLB, func(b *bytes.Buffer) {
		binary.Write(b, le, uint32(len(c.dtlb)))
		binary.Write(b, le, c.dtlb)
		b.Write(c.dtlbAsids)
	})
	sec(secITLB, func(b *bytes.Buffer) {
		binary.Write(b, le, uint32(len(c.itlb)))
		binary.Write(b, le, c.itlb)
		b.Write(c.itlbAsids)
	})
	sec(secStats, func(b *bytes.Buffer) { binary.Write(b, le, c.Stats) })
	sec(secOut, func(b *bytes.Buffer) { b.Write(c.out.Bytes()) })

	out := make([]byte, 0, snapHeaderLen+payload.Len())
	out = append(out, snapMagic...)
	out = le.AppendUint16(out, SnapshotVersion)
	fp := c.img.Fingerprint()
	out = append(out, fp[:]...)
	out = le.AppendUint64(out, uint64(payload.Len()))
	sum := sha256.Sum256(payload.Bytes())
	out = append(out, sum[:]...)
	out = append(out, payload.Bytes()...)
	return out, nil
}

// Restore deserializes a snapshot into the context, which must belong to a
// machine freshly Reset (or ResetMany) onto the *same image* the snapshot
// was taken from. Every validation failure — wrong magic or version, a
// different image or configuration, a corrupted payload, a malformed
// section — returns *ErrBadSnapshot naming the failed check, and the
// context is left un-restored. After a successful Restore, Run/RunContext
// (or RunMany for a batch tenant) continues the execution bit-identically
// instead of booting from the image.
func (c *Context) Restore(data []byte) error {
	if c.img == nil {
		return &ErrBadSnapshot{Field: "state", Msg: "context is not attached to an image: Reset the machine first"}
	}
	if len(data) < snapHeaderLen {
		return &ErrBadSnapshot{Field: "header", Msg: fmt.Sprintf("%d bytes is shorter than the %d-byte header", len(data), snapHeaderLen)}
	}
	if string(data[:8]) != snapMagic {
		return &ErrBadSnapshot{Field: "magic", Msg: fmt.Sprintf("bad magic %q (want %q): not a context snapshot", data[:8], snapMagic)}
	}
	le := binary.LittleEndian
	if v := le.Uint16(data[8:10]); v != SnapshotVersion {
		return &ErrBadSnapshot{Field: "version", Msg: fmt.Sprintf("encoding version %d; this build reads version %d only", v, SnapshotVersion)}
	}
	fp := c.img.Fingerprint()
	if !bytes.Equal(data[10:42], fp[:]) {
		return &ErrBadSnapshot{Field: "image", Msg: fmt.Sprintf(
			"snapshot was taken from a different image: fingerprint %x does not match the resident image %x (machine %q) — restore onto the exact image the snapshot came from",
			data[10:42], fp[:8], c.img.Cfg.Name)}
	}
	payloadLen := le.Uint64(data[42:50])
	payload := data[snapHeaderLen:]
	if uint64(len(payload)) != payloadLen {
		return &ErrBadSnapshot{Field: "length", Msg: fmt.Sprintf("payload is %d bytes, header promises %d (truncated or padded)", len(payload), payloadLen)}
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(data[50:82], sum[:]) {
		return &ErrBadSnapshot{Field: "checksum", Msg: "payload SHA-256 mismatch: the snapshot bytes are corrupted"}
	}

	// First pass: walk and structurally validate every section against this
	// context's (image-determined) geometry, so the second pass can apply
	// without partially mutating the context on a malformed stream.
	sections := map[byte][]byte{}
	for off := 0; off < len(payload); {
		if len(payload)-off < 9 {
			return &ErrBadSnapshot{Field: "section", Msg: fmt.Sprintf("truncated section header at payload offset %d", off)}
		}
		tag := payload[off]
		n := le.Uint64(payload[off+1 : off+9])
		off += 9
		if uint64(len(payload)-off) < n {
			return &ErrBadSnapshot{Field: "section", Msg: fmt.Sprintf("section %d claims %d bytes, only %d remain", tag, n, len(payload)-off)}
		}
		if _, dup := sections[tag]; dup {
			return &ErrBadSnapshot{Field: "section", Msg: fmt.Sprintf("duplicate section %d", tag)}
		}
		sections[tag] = payload[off : off+int(n)]
		off += int(n)
	}
	want := func(tag byte, name string, size int) ([]byte, error) {
		b, ok := sections[tag]
		if !ok {
			return nil, &ErrBadSnapshot{Field: "section", Msg: fmt.Sprintf("missing %s section (%d)", name, tag)}
		}
		if size >= 0 && len(b) != size {
			return nil, &ErrBadSnapshot{Field: "section", Msg: fmt.Sprintf("%s section is %d bytes, want %d", name, len(b), size)}
		}
		return b, nil
	}

	coreb, err := want(secCore, "core", 1+8+8+1+4)
	if err != nil {
		return err
	}
	iregsb, err := want(secIRegs, "iregs", binary.Size(c.iregs))
	if err != nil {
		return err
	}
	fregsb, err := want(secFRegs, "fregs", binary.Size(c.fregs))
	if err != nil {
		return err
	}
	sfb, err := want(secSF, "store-file", binary.Size(c.sf))
	if err != nil {
		return err
	}
	bbb, err := want(secBB, "branch-bank", binary.Size(c.bb))
	if err != nil {
		return err
	}
	pendb, err := want(secPending, "pending-writes", -1)
	if err != nil {
		return err
	}
	if len(pendb) < 4 || (len(pendb)-4)%pendingWireLen != 0 ||
		int(le.Uint32(pendb[:4]))*pendingWireLen != len(pendb)-4 {
		return &ErrBadSnapshot{Field: "section", Msg: "pending-writes section is malformed"}
	}
	memb, err := want(secMem, "memory", len(c.mem))
	if err != nil {
		return err
	}
	busyb, err := want(secBankBusy, "bank-busy", binary.Size(c.bankBusy))
	if err != nil {
		return err
	}
	icb, err := want(secICache, "icache", 4+9*len(c.itags))
	if err != nil {
		return err
	}
	if int(le.Uint32(icb[:4])) != len(c.itags) {
		return &ErrBadSnapshot{Field: "section", Msg: fmt.Sprintf("icache has %d lines, this machine has %d", le.Uint32(icb[:4]), len(c.itags))}
	}
	dtlbb, err := want(secDTLB, "dtlb", 4+9*TLBEntries)
	if err != nil {
		return err
	}
	itlbb, err := want(secITLB, "itlb", 4+9*TLBEntries)
	if err != nil {
		return err
	}
	for _, tb := range [2][]byte{dtlbb, itlbb} {
		if int(le.Uint32(tb[:4])) != TLBEntries {
			return &ErrBadSnapshot{Field: "section", Msg: fmt.Sprintf("TLB has %d entries, this machine has %d", le.Uint32(tb[:4]), TLBEntries)}
		}
	}
	statsb, err := want(secStats, "stats", binary.Size(c.Stats))
	if err != nil {
		return err
	}
	outb, err := want(secOut, "output", -1)
	if err != nil {
		return err
	}
	for tag := range sections {
		switch tag {
		case secCore, secIRegs, secFRegs, secSF, secBB, secPending, secMem,
			secBankBusy, secICache, secDTLB, secITLB, secStats, secOut:
		default:
			return &ErrBadSnapshot{Field: "section", Msg: fmt.Sprintf("unknown section %d in a version-%d snapshot", tag, SnapshotVersion)}
		}
	}

	// Second pass: apply. Everything below is infallible.
	c.asid = coreb[0]
	c.pc = int(int64(le.Uint64(coreb[1:9])))
	c.beat = int64(le.Uint64(coreb[9:17]))
	c.halted = coreb[17] != 0
	c.exit = int32(le.Uint32(coreb[18:22]))

	binary.Read(bytes.NewReader(iregsb), le, &c.iregs)
	binary.Read(bytes.NewReader(fregsb), le, &c.fregs)
	binary.Read(bytes.NewReader(sfb), le, &c.sf)
	binary.Read(bytes.NewReader(bbb), le, &c.bb)

	n := int(le.Uint32(pendb[:4]))
	c.pending = c.pending[:0]
	for i := 0; i < n; i++ {
		b := pendb[4+i*pendingWireLen:]
		c.pending = append(c.pending, pendingWrite{
			beat: int64(le.Uint64(b[0:8])),
			dst:  mach.PReg{Bank: mach.Bank(b[8]), Board: b[9], Idx: b[10]},
			spec: b[11] != 0,
			val:  le.Uint64(b[12:20]),
			pc:   int(int64(le.Uint64(b[20:28]))),
		})
	}

	copy(c.mem, memb)
	binary.Read(bytes.NewReader(busyb), le, &c.bankBusy)
	for i := range c.itags {
		c.itags[i] = int(int64(le.Uint64(icb[4+i*8:])))
	}
	copy(c.iasids, icb[4+8*len(c.itags):])
	for i := 0; i < TLBEntries; i++ {
		c.dtlb[i] = int64(le.Uint64(dtlbb[4+i*8:]))
		c.itlb[i] = int64(le.Uint64(itlbb[4+i*8:]))
	}
	copy(c.dtlbAsids, dtlbb[4+8*TLBEntries:])
	copy(c.itlbAsids, itlbb[4+8*TLBEntries:])
	binary.Read(bytes.NewReader(statsb), le, &c.Stats)
	c.out.Reset()
	c.out.Write(outb)

	c.done = false
	c.err = nil
	c.booted = true
	c.restored = true
	return nil
}

// Beat returns the context's virtual clock: beats executed so far.
func (c *Context) Beat() int64 { return c.beat }
