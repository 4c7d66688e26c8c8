// Binary snapshot codec: the checkpoint-path counterpart of the transport
// package's wire codec. Snapshots, deltas and partials are serialized in a
// single append pass into a buffer pre-sized by an exact length
// computation, so steady-state encoding into a recycled buffer performs no
// allocation.
//
// Layout (all integers LEB128 uvarints unless noted):
//
//	header          magic version subjobID [prevSeq, deltas only]
//	full snapshot   "SHS2" header consumed peStates pipes input output stateUnits
//	delta           "SHD2" header consumed? peTable pipeEntries input? output? stateUnits
//	partial         "SHP2" header consumed outNext coldBytes peTable stateUnits
//
// where strings and byte slices are length-prefixed, element batches are a
// count followed by the element package's fixed-width encoding, consumed
// maps are sorted by key for deterministic output, the optional delta
// sections carry a leading 0/1 presence byte, and a peTable is a count of
// entries that each lead with an absent/patch/full kind byte. Every frame
// starts with one of the three magics: bytes without one are rejected, and
// every count is checked against the bytes left before anything is
// allocated for it.
package subjob

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"streamha/internal/element"
	"streamha/internal/queue"
)

const (
	snapMagic    = "SHS2"
	deltaMagic   = "SHD2"
	partialMagic = "SHP2"
	codecVersion = 1
)

// PE-entry kinds in a peTable.
const (
	peAbsent = 0
	peDelta  = 1
	peFull   = 2
)

// minInputEntry is the smallest encoding of one input-queue entry: an
// empty stream name's length byte plus the fixed-width element.
const minInputEntry = 1 + element.EncodedSize

func hasMagic(b []byte, magic string) bool {
	return len(b) >= 4 && string(b[:4]) == magic
}

// IsDelta reports whether an encoded checkpoint payload is a delta.
func IsDelta(b []byte) bool { return hasMagic(b, deltaMagic) }

// kindName names a frame kind, by its magic, in errors.
func kindName(magic string) string {
	switch magic {
	case snapMagic:
		return "snapshot"
	case deltaMagic:
		return "delta"
	}
	return "partial"
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func sizeBytes(b []byte) int   { return uvarintLen(uint64(len(b))) + len(b) }
func sizeString(s string) int  { return uvarintLen(uint64(len(s))) + len(s) }
func sizeElems(n int) int      { return uvarintLen(uint64(n)) + n*element.EncodedSize }
func sizeHeader(id string) int { return 4 + 1 + sizeString(id) }

func sizeConsumed(m map[string]uint64) int {
	n := uvarintLen(uint64(len(m)))
	for k, v := range m {
		n += sizeString(k) + uvarintLen(v)
	}
	return n
}

func sizeInput(in []queue.In) int {
	n := uvarintLen(uint64(len(in)))
	for _, e := range in {
		n += sizeString(e.Stream) + element.EncodedSize
	}
	return n
}

// sizePETable sizes the PE-entry table of patch and full, which have equal
// lengths; entry i is full[i] if non-nil, else patch[i] if non-nil, else
// absent.
func sizePETable(patch, full [][]byte) int {
	n := uvarintLen(uint64(len(patch)))
	for i := range patch {
		n++ // kind byte
		switch {
		case full[i] != nil:
			n += sizeBytes(full[i])
		case patch[i] != nil:
			n += sizeBytes(patch[i])
		}
	}
	return n
}

func appendHeader(dst []byte, magic, id string) []byte {
	dst = append(dst, magic...)
	dst = append(dst, codecVersion)
	return appendString(dst, id)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendElems(dst []byte, elems []element.Element) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(elems)))
	return element.AppendBatch(dst, elems)
}

func appendFlag(dst []byte, set bool) []byte {
	if set {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendConsumed(dst []byte, m map[string]uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	if len(m) == 0 {
		return dst
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = binary.AppendUvarint(dst, m[k])
	}
	return dst
}

func appendInput(dst []byte, in []queue.In) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(in)))
	for _, e := range in {
		dst = appendString(dst, e.Stream)
		dst = e.Elem.AppendEncode(dst)
	}
	return dst
}

// appendPETable appends the PE-entry table of patch and full (see
// sizePETable).
func appendPETable(dst []byte, patch, full [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(patch)))
	for i := range patch {
		switch {
		case full[i] != nil:
			dst = append(dst, peFull)
			dst = appendBytes(dst, full[i])
		case patch[i] != nil:
			dst = append(dst, peDelta)
			dst = appendBytes(dst, patch[i])
		default:
			dst = append(dst, peAbsent)
		}
	}
	return dst
}

// EncodedSize returns the exact byte length of the snapshot's binary
// encoding, letting callers size the destination buffer for a single
// allocation-free append pass.
func (s *Snapshot) EncodedSize() int {
	n := sizeHeader(s.SubjobID) + sizeConsumed(s.Consumed)
	n += uvarintLen(uint64(len(s.PEStates)))
	for _, st := range s.PEStates {
		n += sizeBytes(st)
	}
	n += uvarintLen(uint64(len(s.Pipes)))
	for _, p := range s.Pipes {
		n += sizeElems(len(p))
	}
	n += sizeInput(s.Input)
	n += sizeString(s.Output.StreamID) + uvarintLen(s.Output.Floor) + uvarintLen(s.Output.NextSeq)
	n += sizeElems(len(s.Output.Buf))
	n += uvarintLen(uint64(s.StateUnits))
	return n
}

// AppendTo appends the snapshot's binary encoding to dst and returns the
// extended slice. With a recycled buffer of sufficient capacity the encode
// allocates nothing.
func (s *Snapshot) AppendTo(dst []byte) []byte {
	dst = appendHeader(dst, snapMagic, s.SubjobID)
	dst = appendConsumed(dst, s.Consumed)
	dst = binary.AppendUvarint(dst, uint64(len(s.PEStates)))
	for _, st := range s.PEStates {
		dst = appendBytes(dst, st)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Pipes)))
	for _, p := range s.Pipes {
		dst = appendElems(dst, p)
	}
	dst = appendInput(dst, s.Input)
	dst = appendString(dst, s.Output.StreamID)
	dst = binary.AppendUvarint(dst, s.Output.Floor)
	dst = binary.AppendUvarint(dst, s.Output.NextSeq)
	dst = appendElems(dst, s.Output.Buf)
	return binary.AppendUvarint(dst, uint64(s.StateUnits))
}

// EncodedSize returns the exact byte length of the delta's binary encoding.
func (d *Delta) EncodedSize() int {
	n := sizeHeader(d.SubjobID) + uvarintLen(d.PrevSeq)
	n++ // consumed presence flag
	if d.Consumed != nil {
		n += sizeConsumed(d.Consumed)
	}
	n += sizePETable(d.PEDeltas, d.PEFull)
	n += uvarintLen(uint64(len(d.Pipes)))
	for i, p := range d.Pipes {
		n++ // presence byte
		if d.PipeSet[i] {
			n += sizeElems(len(p))
		}
	}
	n++ // input presence flag
	if d.HasInput {
		n += sizeInput(d.Input)
	}
	n++ // output presence flag
	if d.HasOutput {
		n += sizeString(d.Output.StreamID) + uvarintLen(d.Output.Floor) +
			uvarintLen(d.Output.NextSeq) + uvarintLen(d.Output.FromSeq) + sizeElems(len(d.Output.New))
	}
	return n + uvarintLen(uint64(d.StateUnits))
}

// AppendTo appends the delta's binary encoding to dst and returns the
// extended slice.
func (d *Delta) AppendTo(dst []byte) []byte {
	dst = appendHeader(dst, deltaMagic, d.SubjobID)
	dst = binary.AppendUvarint(dst, d.PrevSeq)
	dst = appendFlag(dst, d.Consumed != nil)
	if d.Consumed != nil {
		dst = appendConsumed(dst, d.Consumed)
	}
	dst = appendPETable(dst, d.PEDeltas, d.PEFull)
	dst = binary.AppendUvarint(dst, uint64(len(d.Pipes)))
	for i, p := range d.Pipes {
		dst = appendFlag(dst, d.PipeSet[i])
		if d.PipeSet[i] {
			dst = appendElems(dst, p)
		}
	}
	dst = appendFlag(dst, d.HasInput)
	if d.HasInput {
		dst = appendInput(dst, d.Input)
	}
	dst = appendFlag(dst, d.HasOutput)
	if d.HasOutput {
		dst = appendString(dst, d.Output.StreamID)
		dst = binary.AppendUvarint(dst, d.Output.Floor)
		dst = binary.AppendUvarint(dst, d.Output.NextSeq)
		dst = binary.AppendUvarint(dst, d.Output.FromSeq)
		dst = appendElems(dst, d.Output.New)
	}
	return binary.AppendUvarint(dst, uint64(d.StateUnits))
}

// Encode serializes the delta; the returned slice is freshly allocated at
// its exact size and owned by the caller.
func (d *Delta) Encode() ([]byte, error) {
	return d.AppendTo(make([]byte, 0, d.EncodedSize())), nil
}

// creader is a sticky-error cursor over an encoded checkpoint, in the
// style of the transport codec's payload reader: after the first framing
// error every subsequent read is a no-op and the error surfaces once.
type creader struct {
	b   []byte
	err error
}

func (r *creader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("subjob: "+format, args...)
	}
}

func (r *creader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an entry count and rejects it unless that many entries of
// at least minSize bytes each fit in the bytes left, so a corrupt count
// cannot drive an allocation larger than the payload. It returns 0 once
// the reader has failed.
func (r *creader) count(minSize int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/minSize) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *creader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated flag byte")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// flag reads a 0/1 presence byte.
func (r *creader) flag() bool {
	v := r.byte()
	if v > 1 {
		r.fail("presence flag %d", v)
	}
	return v == 1
}

func (r *creader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail("field wants %d bytes, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *creader) str() string { return string(r.take(r.uvarint())) }

func (r *creader) bytes() []byte {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *creader) consumed() map[string]uint64 {
	n := r.count(2) // key length byte + value varint
	if n == 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		m[k] = r.uvarint()
	}
	return m
}

func (r *creader) elems() []element.Element {
	n := r.count(element.EncodedSize)
	if n == 0 {
		return nil
	}
	out, rest, err := element.DecodeBatch(nil, r.b, n)
	if err != nil {
		r.fail("element batch: %v", err)
		return nil
	}
	r.b = rest
	return out
}

func (r *creader) input() []queue.In {
	n := r.count(minInputEntry)
	if n == 0 {
		return nil
	}
	out := make([]queue.In, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		stream := r.str()
		raw := r.take(element.EncodedSize)
		if r.err != nil {
			break
		}
		e, err := element.Decode(raw)
		if err != nil {
			r.fail("input element: %v", err)
			break
		}
		out = append(out, queue.In{Stream: stream, Elem: e})
	}
	return out
}

// peTable reads a PE-entry table (see sizePETable) into fresh patch and
// full slices of equal length. A full entry with empty state decodes as
// a non-nil empty slice so that it stays distinct from an absent one.
func (r *creader) peTable() (patch, full [][]byte) {
	n := r.count(1)
	if r.err != nil {
		return nil, nil
	}
	patch, full = make([][]byte, n), make([][]byte, n)
	for i := 0; i < n && r.err == nil; i++ {
		switch kind := r.byte(); kind {
		case peAbsent:
		case peDelta:
			patch[i] = r.bytes()
		case peFull:
			full[i] = r.bytes()
			if full[i] == nil {
				full[i] = []byte{}
			}
		default:
			r.fail("unknown PE entry kind %d", kind)
		}
	}
	return patch, full
}

func (r *creader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("subjob: %d trailing bytes after %s", len(r.b), what)
	}
	return nil
}

// readHeader reads the header every checkpoint frame starts with — magic,
// codec version, subjob ID and, for deltas, the chain predecessor — and
// returns it with a reader positioned at the frame body. A non-empty want
// is the only magic the caller accepts. Bytes without a checkpoint magic
// are an error: there is no other format to fall back to.
func readHeader(b []byte, want string) (CheckpointInfo, creader, error) {
	var info CheckpointInfo
	var magic string
	switch {
	case hasMagic(b, snapMagic):
		magic = snapMagic
	case hasMagic(b, deltaMagic):
		magic, info.IsDelta = deltaMagic, true
	case hasMagic(b, partialMagic):
		magic, info.IsPartial = partialMagic, true
	case len(b) == 0:
		return info, creader{}, errors.New("subjob: empty checkpoint payload")
	default:
		return info, creader{}, errors.New("subjob: not a checkpoint payload (no SHS2/SHD2/SHP2 magic)")
	}
	if want != "" && magic != want {
		return CheckpointInfo{}, creader{}, fmt.Errorf("subjob: %s checkpoint where %s expected", kindName(magic), kindName(want))
	}
	r := creader{b: b[4:]}
	if v := r.byte(); r.err == nil && v != codecVersion {
		return CheckpointInfo{}, creader{}, fmt.Errorf("subjob: unknown %s codec version %d", kindName(magic), v)
	}
	info.SubjobID = r.str()
	if info.IsDelta {
		info.PrevSeq = r.uvarint()
	}
	if r.err != nil {
		return CheckpointInfo{}, creader{}, r.err
	}
	return info, r, nil
}

// DecodeSnapshot parses an encoded full snapshot.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	info, r, err := readHeader(b, snapMagic)
	if err != nil {
		return nil, err
	}
	return r.snapshot(info)
}

func (r *creader) snapshot(info CheckpointInfo) (*Snapshot, error) {
	s := &Snapshot{SubjobID: info.SubjobID}
	s.Consumed = r.consumed()
	if n := r.count(1); n > 0 {
		s.PEStates = make([][]byte, n)
		for i := range s.PEStates {
			s.PEStates[i] = r.bytes()
		}
	}
	if n := r.count(1); n > 0 {
		s.Pipes = make([][]element.Element, n)
		for i := range s.Pipes {
			s.Pipes[i] = r.elems()
		}
	}
	s.Input = r.input()
	s.Output.StreamID = r.str()
	s.Output.Floor = r.uvarint()
	s.Output.NextSeq = r.uvarint()
	s.Output.Buf = r.elems()
	s.StateUnits = int(r.uvarint())
	if err := r.done("snapshot"); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeDelta parses an encoded delta checkpoint.
func DecodeDelta(b []byte) (*Delta, error) {
	info, r, err := readHeader(b, deltaMagic)
	if err != nil {
		return nil, err
	}
	return r.delta(info)
}

func (r *creader) delta(info CheckpointInfo) (*Delta, error) {
	d := &Delta{SubjobID: info.SubjobID, PrevSeq: info.PrevSeq}
	if r.flag() {
		d.Consumed = r.consumed()
		if d.Consumed == nil && r.err == nil {
			d.Consumed = map[string]uint64{}
		}
	}
	d.PEDeltas, d.PEFull = r.peTable()
	if n := r.count(1); r.err == nil {
		d.Pipes = make([][]element.Element, n)
		d.PipeSet = make([]bool, n)
		for i := 0; i < n && r.err == nil; i++ {
			if r.flag() {
				d.PipeSet[i] = true
				d.Pipes[i] = r.elems()
			}
		}
	}
	if r.flag() {
		d.HasInput = true
		d.Input = r.input()
	}
	if r.flag() {
		d.HasOutput = true
		d.Output.StreamID = r.str()
		d.Output.Floor = r.uvarint()
		d.Output.NextSeq = r.uvarint()
		d.Output.FromSeq = r.uvarint()
		d.Output.New = r.elems()
	}
	d.StateUnits = int(r.uvarint())
	if err := r.done("delta"); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeCheckpoint parses an encoded checkpoint payload of either kind:
// exactly one of the returned snapshot and delta is non-nil on success.
// Partial (bounded-error) frames are not valid here: they never enter the
// store fold or the durable catalog, so reaching one is a routing bug.
func DecodeCheckpoint(b []byte) (*Snapshot, *Delta, error) {
	info, r, err := readHeader(b, "")
	switch {
	case err != nil:
		return nil, nil, err
	case info.IsPartial:
		return nil, nil, fmt.Errorf("subjob: partial checkpoint where full/delta expected (partial frames are not foldable)")
	case info.IsDelta:
		d, err := r.delta(info)
		return nil, d, err
	}
	s, err := r.snapshot(info)
	return s, nil, err
}

// CheckpointInfo describes an encoded checkpoint payload: enough to index
// and chain it without decoding the state sections.
type CheckpointInfo struct {
	SubjobID string
	IsDelta  bool
	// IsPartial marks a bounded-error frame (SHP2); such payloads are
	// transport-only and never stored.
	IsPartial bool
	// PrevSeq is the chain predecessor; meaningful only for deltas.
	PrevSeq uint64
}

// PeekCheckpoint reads a checkpoint payload's header — subjob identity,
// kind, and (for deltas) the chain predecessor — at the cost of a few
// header bytes.
func PeekCheckpoint(b []byte) (CheckpointInfo, error) {
	info, _, err := readHeader(b, "")
	return info, err
}
