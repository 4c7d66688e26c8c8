package subjob

import "encoding/binary"

// Partial is a bounded-error checkpoint: only the hot byte ranges of each
// PE's state (the pages its dirty tracking saw change since the previous
// capture) plus the consumption and output positions needed to promote
// from it. Unlike a Delta it is deliberately UNCHAINED — there is no
// PrevSeq, and a standby that misses a frame keeps stale cold bytes
// instead of breaking a chain. That staleness is the quantified error the
// approx policy accounts against its budget; ColdBytes reports how much
// of the full state a frame did not cover.
type Partial struct {
	SubjobID string
	// Consumed is the first PE's consumption positions at capture time;
	// the promoted standby acks upstreams from here.
	Consumed map[string]uint64
	// PEPatches[i] is PE i's hot-range patch (pe patch encoding); nil when
	// the PE shipped in full instead or had nothing to ship.
	PEPatches [][]byte
	// PEFull[i] is PE i's full state, the fallback when the logic has no
	// delta baseline (or is not a DeltaLogic at all).
	PEFull [][]byte
	// OutNext is the primary's output NextSeq at capture time. On promote
	// the standby fast-forwards its (empty) output queue here so the seqs
	// it assigns to regenerated elements line up with what downstream
	// consumers already acknowledged.
	OutNext uint64
	// ColdBytes is the portion of the full PE state, in bytes, that this
	// frame did not ship — the upper bound on state staleness it can leave
	// behind on the standby.
	ColdBytes uint64
	// StateUnits is the shipped size in element-equivalents.
	StateUnits int
}

// ElementUnits returns the partial's shipped size in data-element
// equivalents, the accounting unit of the paper's overhead figures.
func (p *Partial) ElementUnits() int { return p.StateUnits }

// IsPartial reports whether an encoded checkpoint payload is a partial
// frame.
func IsPartial(b []byte) bool { return hasMagic(b, partialMagic) }

// EncodedSize returns the exact byte length of the partial's binary
// encoding.
func (p *Partial) EncodedSize() int {
	n := sizeHeader(p.SubjobID) + sizeConsumed(p.Consumed)
	n += uvarintLen(p.OutNext) + uvarintLen(p.ColdBytes)
	n += sizePETable(p.PEPatches, p.PEFull)
	return n + uvarintLen(uint64(p.StateUnits))
}

// AppendTo appends the partial's binary encoding to dst and returns the
// extended slice. With a recycled buffer of sufficient capacity the encode
// allocates nothing.
func (p *Partial) AppendTo(dst []byte) []byte {
	dst = appendHeader(dst, partialMagic, p.SubjobID)
	dst = appendConsumed(dst, p.Consumed)
	dst = binary.AppendUvarint(dst, p.OutNext)
	dst = binary.AppendUvarint(dst, p.ColdBytes)
	dst = appendPETable(dst, p.PEPatches, p.PEFull)
	return binary.AppendUvarint(dst, uint64(p.StateUnits))
}

// Encode serializes the partial; the returned slice is freshly allocated
// at its exact size and owned by the caller.
func (p *Partial) Encode() ([]byte, error) {
	return p.AppendTo(make([]byte, 0, p.EncodedSize())), nil
}

// DecodePartial parses an encoded partial checkpoint.
func DecodePartial(b []byte) (*Partial, error) {
	info, r, err := readHeader(b, partialMagic)
	if err != nil {
		return nil, err
	}
	p := &Partial{SubjobID: info.SubjobID}
	p.Consumed = r.consumed()
	p.OutNext = r.uvarint()
	p.ColdBytes = r.uvarint()
	p.PEPatches, p.PEFull = r.peTable()
	p.StateUnits = int(r.uvarint())
	if err := r.done("partial"); err != nil {
		return nil, err
	}
	return p, nil
}
