package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// A segment is a sequence of frames:
//
//	frame    := length:u32le  crc:u32le  payload
//	payload  := feedback | reseed
//	feedback := seq:u64le  actual:f64le(bits)  dims:u32le
//	            lo[0..dims):f64le(bits)  hi[0..dims):f64le(bits)
//	reseed   := seq:u64le  zero:u64le  marker:u32le(=0xFFFFFFFF)  blob
//
// length covers the payload only; crc is CRC-32 (IEEE) of the payload.
// Floats are stored as their IEEE-754 bit patterns, so replay reconstructs
// the exact values fed to the estimator — bit-identical recovery depends on
// this. A frame that extends past the end of the segment is a torn tail
// (the crash interrupted the append) and replay stops cleanly before it.
//
// Reseed frames journal a wholesale histogram replacement (the drift
// adaptation loop promoting a re-clustered candidate): the blob is the
// serialized histogram exactly as promoted, so replay restores the same
// state the serving path switched to. They share the feedback payload's
// 20-byte prefix, with the dims field carved out as a kind marker —
// 0xFFFFFFFF can never be a real dimensionality (maxDims caps it far lower),
// so old feedback frames and reseed frames are unambiguous.

const (
	frameHeader = 8 // length + crc

	// MaxRecordBytes bounds a single payload. A length field above this is
	// treated as corruption rather than an instruction to allocate.
	MaxRecordBytes = 1 << 20

	// maxDims bounds the dimensionality of a record; consistent with
	// MaxRecordBytes (20 + 16*dims <= MaxRecordBytes).
	maxDims = 4096

	// reseedMarker occupies the dims field of a reseed payload.
	reseedMarker = 0xFFFFFFFF

	// MaxBlobBytes bounds a reseed blob so the whole payload stays within
	// MaxRecordBytes.
	MaxBlobBytes = MaxRecordBytes - 20
)

// Kind discriminates WAL record types.
type Kind uint8

const (
	// KindFeedback is one accepted feedback observation — the zero value,
	// so existing construction sites remain correct.
	KindFeedback Kind = iota
	// KindReseed journals an atomic histogram replacement: Blob holds the
	// serialized promoted histogram (sthist.SaveHistogram JSON).
	KindReseed
)

func (k Kind) String() string {
	switch k {
	case KindFeedback:
		return "feedback"
	case KindReseed:
		return "reseed"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Record is one WAL entry. For KindFeedback it carries the query rectangle
// and the true cardinality the client reported; for KindReseed it carries
// the serialized replacement histogram in Blob. Seq is assigned by
// Log.Append and is strictly increasing across checkpoints.
type Record struct {
	Seq    uint64
	Lo, Hi []float64
	Actual float64
	Kind   Kind
	Blob   []byte // KindReseed only
}

// payloadSize returns the encoded payload length for dims dimensions.
func payloadSize(dims int) int { return 8 + 8 + 4 + 16*dims }

// appendFrame appends the framed encoding of r to dst.
func appendFrame(dst []byte, r Record) ([]byte, error) {
	if r.Kind == KindReseed {
		return appendReseedFrame(dst, r)
	}
	if r.Kind != KindFeedback {
		return dst, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	dims := len(r.Lo)
	if dims == 0 || dims != len(r.Hi) {
		return dst, fmt.Errorf("wal: record has lo/hi dims %d/%d", dims, len(r.Hi))
	}
	if dims > maxDims {
		return dst, fmt.Errorf("wal: record has %d dims, max %d", dims, maxDims)
	}
	n := payloadSize(dims)
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader+n)...)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint64(payload[0:], r.Seq)
	binary.LittleEndian.PutUint64(payload[8:], math.Float64bits(r.Actual))
	binary.LittleEndian.PutUint32(payload[16:], uint32(dims))
	off := 20
	for _, v := range r.Lo {
		binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
		off += 8
	}
	for _, v := range r.Hi {
		binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// appendReseedFrame appends the framed encoding of a reseed record to dst.
func appendReseedFrame(dst []byte, r Record) ([]byte, error) {
	if len(r.Blob) == 0 {
		return dst, fmt.Errorf("wal: reseed record has empty blob")
	}
	if len(r.Blob) > MaxBlobBytes {
		return dst, fmt.Errorf("wal: reseed blob is %d bytes, max %d", len(r.Blob), MaxBlobBytes)
	}
	n := 20 + len(r.Blob)
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader+n)...)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint64(payload[0:], r.Seq)
	binary.LittleEndian.PutUint64(payload[8:], 0)
	binary.LittleEndian.PutUint32(payload[16:], reseedMarker)
	copy(payload[20:], r.Blob)
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// decodePayload decodes a checksummed payload into a Record.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) < 20 {
		return Record{}, fmt.Errorf("wal: payload too short (%d bytes)", len(payload))
	}
	dims := int(binary.LittleEndian.Uint32(payload[16:]))
	if uint32(dims) == reseedMarker {
		if len(payload) == 20 {
			return Record{}, fmt.Errorf("wal: reseed payload has empty blob")
		}
		return Record{
			Seq:  binary.LittleEndian.Uint64(payload[0:]),
			Kind: KindReseed,
			Blob: append([]byte(nil), payload[20:]...),
		}, nil
	}
	if dims == 0 || dims > maxDims {
		return Record{}, fmt.Errorf("wal: payload dims %d out of range", dims)
	}
	if len(payload) != payloadSize(dims) {
		return Record{}, fmt.Errorf("wal: payload length %d != %d for %d dims", len(payload), payloadSize(dims), dims)
	}
	r := Record{
		Seq:    binary.LittleEndian.Uint64(payload[0:]),
		Actual: math.Float64frombits(binary.LittleEndian.Uint64(payload[8:])),
		Lo:     make([]float64, dims),
		Hi:     make([]float64, dims),
	}
	off := 20
	for d := 0; d < dims; d++ {
		r.Lo[d] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	for d := 0; d < dims; d++ {
		r.Hi[d] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	return r, nil
}

// Replay decodes the frames of a segment, stopping at the first frame that
// is torn, fails its checksum or does not decode: bytes after a damaged
// frame are untrustworthy, so nothing past it is replayed.
//
// It returns the decoded records, cleanLen (the byte offset just past the
// last good frame — the safe truncation point for further appends), and
// torn=true when replay ended before the end of data. Replay never fails:
// a damaged segment yields the longest trustworthy prefix.
func Replay(data []byte) (recs []Record, cleanLen int64, torn bool) {
	off := 0
	for {
		if off == len(data) {
			return recs, int64(off), false
		}
		if len(data)-off < frameHeader {
			return recs, int64(off), true // torn header
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if length == 0 || length > MaxRecordBytes {
			return recs, int64(off), true // implausible length
		}
		if len(data)-off-frameHeader < length {
			return recs, int64(off), true // torn payload
		}
		payload := data[off+frameHeader : off+frameHeader+length]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			return recs, int64(off), true
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return recs, int64(off), true
		}
		recs = append(recs, rec)
		off += frameHeader + length
	}
}
