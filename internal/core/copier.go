package core

import (
	"nomad/internal/dram"
	"nomad/internal/mem"
)

// Copier performs OS-driven page copies without back-end hardware. The
// blocking TDC scheme uses it both for miss-handling cache fills (the
// application thread waits for the copy to finish) and for eviction
// writebacks (fire-and-forget from the background daemon).
//
// A copy moves one 4 KB page as 64 sub-block reads from the source device
// followed by 64 writes to the destination, with a bounded number of reads
// in flight — the same data movement the NOMAD back-end performs, minus the
// PCSHRs, buffersharing, and critical-data-first logic.
type Copier struct {
	maxReadsInFlight int
	// ops is the freelist of pooled in-flight copies.
	ops []*pageCopier
}

// pageCopier is one pooled in-flight page copy. It is the dram.Completer of
// its own bursts: a completion's argument packs the sub-block index with the
// read/write bit, so no burst needs a closure. (Profiles fold frames into
// layers by name, and "Copier" in the name keeps these with the Copier.)
type pageCopier struct {
	c                  *Copier
	src, dst           *dram.Device
	srcFrame, dstFrame uint64
	kind               mem.Kind
	done               mem.Done
	nextRead           uint
	reads              int
	writesDone         uint
}

// Completion-argument packing for pageCopier.Complete: bit 0 is set for read
// arrivals, the remaining bits carry the sub-block index.
const (
	copyWrite = uint64(0)
	copyRead  = uint64(1)
)

// NewCopier builds a Copier with the given read pacing (<=0 selects 8).
func NewCopier(maxReadsInFlight int) *Copier {
	if maxReadsInFlight <= 0 {
		maxReadsInFlight = 8
	}
	return &Copier{maxReadsInFlight: maxReadsInFlight}
}

// Copy moves srcFrame on src to dstFrame on dst, tagging all traffic with
// kind. done (may be nil) fires when the last destination write completes.
func (c *Copier) Copy(src *dram.Device, srcFrame uint64, dst *dram.Device, dstFrame uint64, kind mem.Kind, done mem.Done) {
	op := c.getOp()
	op.src, op.srcFrame, op.dst, op.dstFrame = src, srcFrame, dst, dstFrame
	op.kind, op.done = kind, done
	op.issue()
}

func (c *Copier) getOp() *pageCopier {
	if n := len(c.ops); n > 0 {
		op := c.ops[n-1]
		c.ops = c.ops[:n-1]
		return op
	}
	return &pageCopier{c: c}
}

// issue keeps up to maxReadsInFlight sub-block reads outstanding.
func (op *pageCopier) issue() {
	for op.reads < op.c.maxReadsInFlight && op.nextRead < mem.SubBlocksPerPage {
		si := op.nextRead
		op.nextRead++
		op.reads++
		op.src.AccessArg(mem.AddrInFrame(op.srcFrame, uint64(si)*mem.BlockSize), false, op.kind, false,
			op, uint64(si)<<1|copyRead)
	}
}

// Complete implements dram.Completer. A read arrival issues the sub-block's
// write and refills the read window; the last write recycles the op, then
// fires done (release-before-callback: done may start another copy).
func (op *pageCopier) Complete(arg uint64) {
	if arg&1 == copyRead {
		op.reads--
		si := arg >> 1
		op.dst.AccessArg(mem.AddrInFrame(op.dstFrame, si*mem.BlockSize), true, op.kind, false,
			op, si<<1|copyWrite)
		op.issue()
		return
	}
	op.writesDone++
	if op.writesDone < mem.SubBlocksPerPage {
		return
	}
	done := op.done
	*op = pageCopier{c: op.c}
	op.c.ops = append(op.c.ops, op)
	if done != nil {
		done()
	}
}
