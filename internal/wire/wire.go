// Package wire defines the on-the-wire formats of the Totem protocols and
// their binary codecs: data packets (with message packing and
// fragmentation), the rotating token, join messages and the commit token
// used by membership.
//
// Encoding is big-endian with explicit lengths. Decoders validate every
// length against the remaining input and hard caps so that a corrupted or
// hostile packet can never cause a panic or an oversized allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/totem-rrp/totem/internal/proto"
)

// Frame-budget constants from the paper (§8): a maximum Ethernet frame of
// 1518 bytes carries 94 bytes of Ethernet + IPv4 + UDP + Totem headers,
// leaving 1424 bytes of Totem payload per frame.
const (
	// MaxFrame is the maximum Ethernet frame size modelled.
	MaxFrame = 1518
	// FrameOverhead is the per-frame header overhead (Ethernet header and
	// trailer, IPv4 header, UDP header and the Totem header).
	FrameOverhead = 94
	// MaxPayload is the maximum Totem payload per packet: application
	// chunks plus their per-chunk framing must fit in this budget.
	MaxPayload = MaxFrame - FrameOverhead // 1424
)

// RecoverySlack is the extra frame budget granted to recovery packets to
// cover the encapsulation headers of the original packet.
const RecoverySlack = 64

// Hard caps used by the decoders to reject malformed input.
const (
	// MaxRTR bounds the retransmission-request list carried by a token.
	MaxRTR = 64
	// MaxMembers bounds membership set sizes in join and commit packets.
	MaxMembers = 256
	// MaxChunks bounds the number of packed chunks in one data packet.
	MaxChunks = 128
)

// Kind discriminates packet types on the wire.
type Kind uint8

// Packet kinds.
const (
	KindData Kind = iota + 1
	KindToken
	KindJoin
	KindCommit
	KindMergeDetect
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindToken:
		return "token"
	case KindJoin:
		return "join"
	case KindCommit:
		return "commit"
	case KindMergeDetect:
		return "merge-detect"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

const (
	magic   uint16 = 0x544D // "TM"
	version uint8  = 1
	// headerLen is magic(2) + version(1) + kind(1) + ring rep(4) + ring
	// epoch(4).
	headerLen = 12
)

// Codec errors. ErrTruncated and ErrMalformed are matched by tests and by
// the transports, which drop undecodable packets.
var (
	ErrTruncated = errors.New("wire: truncated packet")
	ErrMalformed = errors.New("wire: malformed packet")
	ErrTooLarge  = errors.New("wire: packet exceeds frame budget")
)

// Chunk flags: a whole message is First|Last; fragments of a long message
// set First on the first fragment, Last on the final one. Bulk marks a
// chunk of the bulk lane; all fragments of a bulk message carry it, and
// receivers reassemble the two lanes independently per sender.
const (
	ChunkFirst uint8 = 1 << 0
	ChunkLast  uint8 = 1 << 1
	ChunkBulk  uint8 = 1 << 2
)

// Data packet flags.
const (
	// FlagRetrans marks a retransmitted copy of a packet.
	FlagRetrans uint8 = 1 << 0
	// FlagRecovery marks a packet broadcast on a new ring during
	// membership recovery; its single chunk encapsulates an original
	// old-ring data packet.
	FlagRecovery uint8 = 1 << 1
)

// Chunk is one framed unit inside a data packet: a whole application
// message or one fragment of a long message.
type Chunk struct {
	Flags uint8
	Data  []byte
}

// DataPacket is a sequenced broadcast packet carrying one or more chunks.
type DataPacket struct {
	Ring   proto.RingID
	Sender proto.NodeID
	Seq    uint32
	Flags  uint8
	Chunks []Chunk
}

// Token flags used while a new ring is in the Recovery state: Quiet is set
// by the ring representative once its recovery traffic has quiesced and is
// cleared by any member whose recovery is still in flight; Operational is
// set by the representative when Quiet survives a full rotation and tells
// every member to install the new configuration.
const (
	TokenFlagQuiet       uint8 = 1 << 0
	TokenFlagOperational uint8 = 1 << 1
)

// Token is the rotating token of the Totem SRP (paper §2). Seq is the
// sequence number of the last message broadcast on the ring; Rotation is
// incremented by the ring leader on every full rotation so that an idle
// ring still produces distinguishable tokens; ARU/ARUID implement the
// all-received-up-to computation for safe delivery and buffer reclamation;
// FCC and Backlog drive flow control; RTR lists sequence numbers whose
// retransmission is requested.
type Token struct {
	Ring     proto.RingID
	Seq      uint32
	Rotation uint32
	ARU      uint32
	ARUID    proto.NodeID
	FCC      uint32
	Backlog  uint32
	// BulkBacklog counts queued bulk-lane messages ring-wide, maintained
	// like Backlog but separately so the interactive flow-control signal is
	// never diluted by a multi-megabyte transfer sitting in the bulk queue.
	BulkBacklog uint32
	Flags       uint8
	RTR         []uint32
}

// JoinPacket is broadcast during the Gather state of membership. ProcSet
// is the set of processors the sender believes reachable; FailSet the set
// it believes failed; RingSeq is the epoch of the sender's last regular
// configuration, used to mint a larger epoch for the next ring.
type JoinPacket struct {
	Sender  proto.NodeID
	RingSeq uint32
	ProcSet []proto.NodeID
	FailSet []proto.NodeID
}

// CommitEntry is one member's slot in the commit token.
type CommitEntry struct {
	ID      proto.NodeID
	OldRing proto.RingID
	// MyAru is the member's all-received-up-to on its old ring.
	MyAru uint32
	// HighSeq is the highest sequence number the member holds from its
	// old ring.
	HighSeq uint32
	// Visits counts how many times the commit token has reached this
	// member (membership needs two passes).
	Visits uint8
}

// CommitToken circulates around the proposed new ring: the first pass
// collects every member's old-ring state, the second pass (when every
// member sees its own Visits already at 1) commits the configuration and
// starts recovery.
type CommitToken struct {
	Ring    proto.RingID
	Members []CommitEntry
}

func putHeader(buf []byte, k Kind, ring proto.RingID) []byte {
	buf = binary.BigEndian.AppendUint16(buf, magic)
	buf = append(buf, version, uint8(k))
	buf = binary.BigEndian.AppendUint32(buf, uint32(ring.Rep))
	buf = binary.BigEndian.AppendUint32(buf, ring.Epoch)
	return buf
}

func parseHeader(data []byte) (Kind, proto.RingID, []byte, error) {
	if len(data) < headerLen {
		return 0, proto.RingID{}, nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(data) != magic || data[2] != version {
		return 0, proto.RingID{}, nil, ErrMalformed
	}
	k := Kind(data[3])
	if k < KindData || k > KindMergeDetect {
		return 0, proto.RingID{}, nil, ErrMalformed
	}
	ring := proto.RingID{
		Rep:   proto.NodeID(binary.BigEndian.Uint32(data[4:])),
		Epoch: binary.BigEndian.Uint32(data[8:]),
	}
	return k, ring, data[headerLen:], nil
}

// PeekKind returns the packet kind without a full decode. It is used by
// the RRP layer, which treats tokens and messages differently.
func PeekKind(data []byte) (Kind, error) {
	k, _, _, err := parseHeader(data)
	return k, err
}

// PeekRing returns the ring the packet belongs to without a full decode.
func PeekRing(data []byte) (proto.RingID, error) {
	_, ring, _, err := parseHeader(data)
	return ring, err
}

// --- DataPacket ---

// Encode serialises the packet into a freshly allocated buffer. It fails
// with ErrTooLarge when the chunk payloads exceed the frame budget, and
// ErrMalformed on cap violations.
func (p *DataPacket) Encode() ([]byte, error) {
	return p.AppendEncode(make([]byte, 0, headerLen+16+MaxPayload+RecoverySlack))
}

// AppendEncode serialises the packet by appending to buf (which may be
// nil, or a pooled frame from GetFrame) and returns the extended slice.
// Nothing is appended on error. It is the allocation-free hot-path codec:
// with a buffer of FrameCap capacity it never allocates.
func (p *DataPacket) AppendEncode(buf []byte) ([]byte, error) {
	if len(p.Chunks) == 0 || len(p.Chunks) > MaxChunks {
		return buf, fmt.Errorf("%w: %d chunks", ErrMalformed, len(p.Chunks))
	}
	budget := MaxPayload
	if p.Flags&FlagRecovery != 0 {
		// Recovery packets encapsulate a whole original packet; allow the
		// encapsulation overhead on top of the nominal frame budget (the
		// real protocol reuses the replaced header space).
		budget = MaxPayload + RecoverySlack
	}
	payload := 0
	for _, c := range p.Chunks {
		if len(c.Data) > budget {
			return buf, fmt.Errorf("%w: chunk %d bytes", ErrTooLarge, len(c.Data))
		}
		payload += len(c.Data) + ChunkOverhead
	}
	if payload > budget {
		return buf, fmt.Errorf("%w: %d payload bytes", ErrTooLarge, payload)
	}
	buf = putHeader(buf, KindData, p.Ring)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Sender))
	buf = binary.BigEndian.AppendUint32(buf, p.Seq)
	buf = append(buf, p.Flags, uint8(len(p.Chunks)))
	for _, c := range p.Chunks {
		buf = append(buf, c.Flags)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Data)))
		buf = append(buf, c.Data...)
	}
	return buf, nil
}

// ChunkOverhead is the per-chunk framing cost inside a data packet:
// flags(1) + length(2).
const ChunkOverhead = 3

// DecodeData parses a KindData packet. The decoded packet never aliases
// data: the chunk region is copied once into a private buffer and every
// chunk's Data is a capacity-limited sub-slice of that copy, so a decode
// costs three allocations (packet, chunk slice, payload buffer) whatever
// the chunk count, and the caller may recycle the frame as soon as it
// returns.
func DecodeData(data []byte) (*DataPacket, error) {
	k, ring, rest, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if k != KindData {
		return nil, fmt.Errorf("%w: kind %v, want data", ErrMalformed, k)
	}
	if len(rest) < 10 {
		return nil, ErrTruncated
	}
	n := int(rest[9])
	if n == 0 || n > MaxChunks {
		return nil, fmt.Errorf("%w: %d chunks", ErrMalformed, n)
	}
	p := &DataPacket{
		Ring:   ring,
		Sender: proto.NodeID(binary.BigEndian.Uint32(rest)),
		Seq:    binary.BigEndian.Uint32(rest[4:]),
		Flags:  rest[8],
		Chunks: make([]Chunk, 0, n),
	}
	rest = append([]byte(nil), rest[10:]...)
	for i := 0; i < n; i++ {
		if len(rest) < ChunkOverhead {
			return nil, ErrTruncated
		}
		flags := rest[0]
		l := int(binary.BigEndian.Uint16(rest[1:]))
		rest = rest[ChunkOverhead:]
		if l > len(rest) {
			return nil, ErrTruncated
		}
		chunk := Chunk{Flags: flags}
		if l > 0 {
			chunk.Data = rest[:l:l]
		}
		p.Chunks = append(p.Chunks, chunk)
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(rest))
	}
	return p, nil
}

// PeekDataSeq returns the ring and sequence number of an encoded data
// packet without a full decode. The SRP uses it to drop a copy of a packet
// it already holds — every network's copy under active replication —
// before paying for the decode.
func PeekDataSeq(data []byte) (proto.RingID, uint32, error) {
	k, ring, rest, err := parseHeader(data)
	if err != nil {
		return proto.RingID{}, 0, err
	}
	if k != KindData {
		return proto.RingID{}, 0, fmt.Errorf("%w: kind %v, want data", ErrMalformed, k)
	}
	if len(rest) < 8 {
		return proto.RingID{}, 0, ErrTruncated
	}
	return ring, binary.BigEndian.Uint32(rest[4:]), nil
}

// --- Token ---

// tokenBodyLen is the fixed part of an encoded token body: Seq, Rotation,
// ARU, ARUID, FCC, Backlog, BulkBacklog (7×u32) + Flags (u8) + RTR count
// (u16).
const tokenBodyLen = 31

// Encode serialises the token into a freshly allocated buffer.
func (t *Token) Encode() ([]byte, error) {
	return t.AppendEncode(make([]byte, 0, headerLen+tokenBodyLen+4*len(t.RTR)))
}

// AppendEncode serialises the token by appending to buf. Nothing is
// appended on error.
func (t *Token) AppendEncode(buf []byte) ([]byte, error) {
	if len(t.RTR) > MaxRTR {
		return buf, fmt.Errorf("%w: %d rtr entries", ErrMalformed, len(t.RTR))
	}
	buf = putHeader(buf, KindToken, t.Ring)
	buf = binary.BigEndian.AppendUint32(buf, t.Seq)
	buf = binary.BigEndian.AppendUint32(buf, t.Rotation)
	buf = binary.BigEndian.AppendUint32(buf, t.ARU)
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.ARUID))
	buf = binary.BigEndian.AppendUint32(buf, t.FCC)
	buf = binary.BigEndian.AppendUint32(buf, t.Backlog)
	buf = binary.BigEndian.AppendUint32(buf, t.BulkBacklog)
	buf = append(buf, t.Flags)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(t.RTR)))
	for _, s := range t.RTR {
		buf = binary.BigEndian.AppendUint32(buf, s)
	}
	return buf, nil
}

// DecodeToken parses a KindToken packet.
func DecodeToken(data []byte) (*Token, error) {
	k, ring, rest, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if k != KindToken {
		return nil, fmt.Errorf("%w: kind %v, want token", ErrMalformed, k)
	}
	if len(rest) < tokenBodyLen {
		return nil, ErrTruncated
	}
	t := &Token{
		Ring:        ring,
		Seq:         binary.BigEndian.Uint32(rest),
		Rotation:    binary.BigEndian.Uint32(rest[4:]),
		ARU:         binary.BigEndian.Uint32(rest[8:]),
		ARUID:       proto.NodeID(binary.BigEndian.Uint32(rest[12:])),
		FCC:         binary.BigEndian.Uint32(rest[16:]),
		Backlog:     binary.BigEndian.Uint32(rest[20:]),
		BulkBacklog: binary.BigEndian.Uint32(rest[24:]),
		Flags:       rest[28],
	}
	n := int(binary.BigEndian.Uint16(rest[29:]))
	if n > MaxRTR {
		return nil, fmt.Errorf("%w: %d rtr entries", ErrMalformed, n)
	}
	rest = rest[tokenBodyLen:]
	if len(rest) != 4*n {
		return nil, fmt.Errorf("%w: rtr length", ErrMalformed)
	}
	if n > 0 {
		t.RTR = make([]uint32, n)
		for i := range t.RTR {
			t.RTR[i] = binary.BigEndian.Uint32(rest[4*i:])
		}
	}
	return t, nil
}

// PeekTokenSeq returns (Seq, Rotation) of an encoded token without a full
// decode. The RRP layer uses it to identify token generations (paper §5).
func PeekTokenSeq(data []byte) (seq, rotation uint32, err error) {
	k, _, rest, err := parseHeader(data)
	if err != nil {
		return 0, 0, err
	}
	if k != KindToken {
		return 0, 0, fmt.Errorf("%w: kind %v, want token", ErrMalformed, k)
	}
	if len(rest) < 8 {
		return 0, 0, ErrTruncated
	}
	return binary.BigEndian.Uint32(rest), binary.BigEndian.Uint32(rest[4:]), nil
}

// PeekSender returns the sender of an encoded data packet without a full
// decode. The passive RRP layer's per-sender message monitors use it
// (paper §6).
func PeekSender(data []byte) (proto.NodeID, error) {
	k, _, rest, err := parseHeader(data)
	if err != nil {
		return 0, err
	}
	if k != KindData {
		return 0, fmt.Errorf("%w: kind %v, want data", ErrMalformed, k)
	}
	if len(rest) < 4 {
		return 0, ErrTruncated
	}
	return proto.NodeID(binary.BigEndian.Uint32(rest)), nil
}

// PeekDataFlags returns the Flags byte of an encoded data packet without
// a full decode (used by the RRP monitors to exclude retransmissions).
func PeekDataFlags(data []byte) (uint8, error) {
	k, _, rest, err := parseHeader(data)
	if err != nil {
		return 0, err
	}
	if k != KindData {
		return 0, fmt.Errorf("%w: kind %v, want data", ErrMalformed, k)
	}
	if len(rest) < 9 {
		return 0, ErrTruncated
	}
	return rest[8], nil
}

// --- JoinPacket ---

func encodeNodeSet(buf []byte, set []proto.NodeID) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(set)))
	for _, id := range set {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

func decodeNodeSet(rest []byte) ([]proto.NodeID, []byte, error) {
	if len(rest) < 2 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(rest))
	if n > MaxMembers {
		return nil, nil, fmt.Errorf("%w: %d set members", ErrMalformed, n)
	}
	rest = rest[2:]
	if len(rest) < 4*n {
		return nil, nil, ErrTruncated
	}
	var set []proto.NodeID
	if n > 0 {
		set = make([]proto.NodeID, n)
		for i := range set {
			set[i] = proto.NodeID(binary.BigEndian.Uint32(rest[4*i:]))
		}
	}
	return set, rest[4*n:], nil
}

// Encode serialises the join packet into a freshly allocated buffer. The
// header ring field carries the sender's old ring so receivers can
// correlate epochs.
func (j *JoinPacket) Encode() ([]byte, error) {
	return j.AppendEncode(make([]byte, 0, headerLen+10+4*(len(j.ProcSet)+len(j.FailSet))))
}

// AppendEncode serialises the join packet by appending to buf. Nothing is
// appended on error.
func (j *JoinPacket) AppendEncode(buf []byte) ([]byte, error) {
	if len(j.ProcSet) > MaxMembers || len(j.FailSet) > MaxMembers {
		return buf, fmt.Errorf("%w: membership sets too large", ErrMalformed)
	}
	buf = putHeader(buf, KindJoin, proto.RingID{})
	buf = binary.BigEndian.AppendUint32(buf, uint32(j.Sender))
	buf = binary.BigEndian.AppendUint32(buf, j.RingSeq)
	buf = encodeNodeSet(buf, j.ProcSet)
	buf = encodeNodeSet(buf, j.FailSet)
	return buf, nil
}

// DecodeJoin parses a KindJoin packet.
func DecodeJoin(data []byte) (*JoinPacket, error) {
	k, _, rest, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if k != KindJoin {
		return nil, fmt.Errorf("%w: kind %v, want join", ErrMalformed, k)
	}
	if len(rest) < 8 {
		return nil, ErrTruncated
	}
	j := &JoinPacket{
		Sender:  proto.NodeID(binary.BigEndian.Uint32(rest)),
		RingSeq: binary.BigEndian.Uint32(rest[4:]),
	}
	rest = rest[8:]
	if j.ProcSet, rest, err = decodeNodeSet(rest); err != nil {
		return nil, err
	}
	if j.FailSet, rest, err = decodeNodeSet(rest); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(rest))
	}
	return j, nil
}

// --- CommitToken ---

// Encode serialises the commit token into a freshly allocated buffer.
func (c *CommitToken) Encode() ([]byte, error) {
	return c.AppendEncode(make([]byte, 0, headerLen+2+21*len(c.Members)))
}

// AppendEncode serialises the commit token by appending to buf. Nothing is
// appended on error.
func (c *CommitToken) AppendEncode(buf []byte) ([]byte, error) {
	if len(c.Members) == 0 || len(c.Members) > MaxMembers {
		return buf, fmt.Errorf("%w: %d commit members", ErrMalformed, len(c.Members))
	}
	buf = putHeader(buf, KindCommit, c.Ring)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.Members)))
	for _, m := range c.Members {
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.ID))
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.OldRing.Rep))
		buf = binary.BigEndian.AppendUint32(buf, m.OldRing.Epoch)
		buf = binary.BigEndian.AppendUint32(buf, m.MyAru)
		buf = binary.BigEndian.AppendUint32(buf, m.HighSeq)
		buf = append(buf, m.Visits)
	}
	return buf, nil
}

// DecodeCommit parses a KindCommit packet.
func DecodeCommit(data []byte) (*CommitToken, error) {
	k, ring, rest, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if k != KindCommit {
		return nil, fmt.Errorf("%w: kind %v, want commit", ErrMalformed, k)
	}
	if len(rest) < 2 {
		return nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(rest))
	if n == 0 || n > MaxMembers {
		return nil, fmt.Errorf("%w: %d commit members", ErrMalformed, n)
	}
	rest = rest[2:]
	if len(rest) != 21*n {
		return nil, fmt.Errorf("%w: commit member length", ErrMalformed)
	}
	c := &CommitToken{Ring: ring, Members: make([]CommitEntry, n)}
	for i := range c.Members {
		f := rest[21*i:]
		c.Members[i] = CommitEntry{
			ID:      proto.NodeID(binary.BigEndian.Uint32(f)),
			OldRing: proto.RingID{Rep: proto.NodeID(binary.BigEndian.Uint32(f[4:])), Epoch: binary.BigEndian.Uint32(f[8:])},
			MyAru:   binary.BigEndian.Uint32(f[12:]),
			HighSeq: binary.BigEndian.Uint32(f[16:]),
			Visits:  f[20],
		}
	}
	return c, nil
}

// --- MergeDetect ---

// MergeDetect is periodically broadcast by the representative of an
// operational ring so that rings separated by a healed partition discover
// each other and merge (the totemsrp "merge detect" mechanism). The header
// carries the sender's ring; receivers on a different ring start the
// membership protocol.
type MergeDetect struct {
	Ring   proto.RingID
	Sender proto.NodeID
}

// Encode serialises the merge-detect packet into a freshly allocated
// buffer.
func (m *MergeDetect) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, headerLen+4))
}

// AppendEncode serialises the merge-detect packet by appending to buf.
func (m *MergeDetect) AppendEncode(buf []byte) ([]byte, error) {
	buf = putHeader(buf, KindMergeDetect, m.Ring)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Sender))
	return buf, nil
}

// DecodeMergeDetect parses a KindMergeDetect packet.
func DecodeMergeDetect(data []byte) (*MergeDetect, error) {
	k, ring, rest, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if k != KindMergeDetect {
		return nil, fmt.Errorf("%w: kind %v, want merge-detect", ErrMalformed, k)
	}
	if len(rest) != 4 {
		return nil, ErrTruncated
	}
	return &MergeDetect{Ring: ring, Sender: proto.NodeID(binary.BigEndian.Uint32(rest))}, nil
}
