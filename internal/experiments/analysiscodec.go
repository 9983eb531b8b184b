package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"fomodel/internal/iw"
	"fomodel/internal/stats"
)

// Analysis artifact binary format (artifact-store payloads), in the
// family of the trace (FOT1), producer-link (FOP1) and packed-preps
// (FOC1) formats:
//
//	magic  [4]byte "FOS1"
//	points uvarint count, then count × (W varint, I float64)
//	law    Alpha, Beta, R2 float64
//	summary, fields in stats.Summary declaration order:
//	  Name              uvarint length, then the bytes
//	  Instructions      varint
//	  Mix               isa.NumClasses × float64
//	  Branches          uvarint
//	  Mispredicts       uvarint
//	  MispredictGroups  map
//	  ICacheShort       uvarint
//	  ICacheLong        uvarint
//	  DCacheShort       uvarint
//	  DCacheLong        uvarint
//	  LongMissGroups    map
//	  ROBSize           varint
//	  ICacheMissGaps    uvarint count, then count × varint
//	  DTLBMisses        uvarint
//	  TLBMissGroups     map
//	  AvgLatency        float64
//
// A float64 is its IEEE-754 bits as a little-endian uint64, so every
// model input round-trips exactly and a store-served analysis yields
// responses byte-identical to a fresh computation. A map is a varint
// count (-1 for nil) followed by key/value varint pairs in increasing
// key order, so equal artifacts encode to equal bytes. Varints are the
// encoding/binary ones. Adding a field to stats.Summary, iw.Point or
// iw.PowerLaw needs a codec change and an analysisFormatVersion bump;
// TestAnalysisCodecFieldDrift pins the fields so that such an addition
// fails CI instead of being silently dropped from stored bundles.

var analysisMagic = [4]byte{'F', 'O', 'S', '1'}

// MarshalBinary encodes the artifact in the FOS1 format. The artifact
// must carry a summary.
func (a *AnalysisArtifact) MarshalBinary() ([]byte, error) {
	s := a.Summary
	if s == nil {
		return nil, errors.New("experiments: analysis artifact has no summary")
	}
	buf := make([]byte, 0, 256+len(s.Name)+5*len(s.ICacheMissGaps))
	buf = append(buf, analysisMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(a.Points)))
	for _, p := range a.Points {
		buf = binary.AppendVarint(buf, int64(p.W))
		buf = appendFloat(buf, p.I)
	}
	buf = appendFloat(buf, a.Law.Alpha)
	buf = appendFloat(buf, a.Law.Beta)
	buf = appendFloat(buf, a.Law.R2)

	buf = binary.AppendUvarint(buf, uint64(len(s.Name)))
	buf = append(buf, s.Name...)
	buf = binary.AppendVarint(buf, int64(s.Instructions))
	for _, f := range s.Mix {
		buf = appendFloat(buf, f)
	}
	buf = binary.AppendUvarint(buf, s.Branches)
	buf = binary.AppendUvarint(buf, s.Mispredicts)
	buf = appendIntMap(buf, s.MispredictGroups)
	buf = binary.AppendUvarint(buf, s.ICacheShort)
	buf = binary.AppendUvarint(buf, s.ICacheLong)
	buf = binary.AppendUvarint(buf, s.DCacheShort)
	buf = binary.AppendUvarint(buf, s.DCacheLong)
	buf = appendIntMap(buf, s.LongMissGroups)
	buf = binary.AppendVarint(buf, int64(s.ROBSize))
	buf = binary.AppendUvarint(buf, uint64(len(s.ICacheMissGaps)))
	for _, g := range s.ICacheMissGaps {
		buf = binary.AppendVarint(buf, int64(g))
	}
	buf = binary.AppendUvarint(buf, s.DTLBMisses)
	buf = appendIntMap(buf, s.TLBMissGroups)
	buf = appendFloat(buf, s.AvgLatency)
	return buf, nil
}

// UnmarshalBinary decodes a MarshalBinary payload into a, replacing its
// contents. Any payload that is not exactly one canonical FOS1 encoding
// (wrong magic, truncation, trailing bytes, an overlong varint,
// unsorted map keys, an out-of-range value) is an error, and a is left
// unchanged. Every count is checked against the bytes that remain
// before anything is allocated, so a forged count cannot force an
// allocation beyond the payload's size. An empty ICacheMissGaps decodes
// as nil, which is what stats.Analyze produces for a trace without
// I-cache misses; nil and empty maps keep their identity.
func (a *AnalysisArtifact) UnmarshalBinary(data []byte) error {
	if len(data) < len(analysisMagic) || [4]byte(data[:4]) != analysisMagic {
		return errors.New("experiments: analysis artifact: bad magic")
	}
	r := analysisReader{b: data[4:]}
	var out AnalysisArtifact
	if n := r.count(1 + 8); n > 0 {
		out.Points = make([]iw.Point, n)
		for i := range out.Points {
			out.Points[i] = iw.Point{W: r.int(), I: r.float()}
		}
	}
	out.Law = iw.PowerLaw{Alpha: r.float(), Beta: r.float(), R2: r.float()}

	s := &stats.Summary{}
	s.Name = r.string()
	s.Instructions = r.int()
	for i := range s.Mix {
		s.Mix[i] = r.float()
	}
	s.Branches = r.uvarint()
	s.Mispredicts = r.uvarint()
	s.MispredictGroups = r.intMap()
	s.ICacheShort = r.uvarint()
	s.ICacheLong = r.uvarint()
	s.DCacheShort = r.uvarint()
	s.DCacheLong = r.uvarint()
	s.LongMissGroups = r.intMap()
	s.ROBSize = r.int()
	if n := r.count(1); n > 0 {
		s.ICacheMissGaps = make([]int32, n)
		for i := range s.ICacheMissGaps {
			v := r.varint()
			if v < math.MinInt32 || v > math.MaxInt32 {
				r.fail("I-cache miss gap %d out of range", v)
			}
			s.ICacheMissGaps[i] = int32(v)
		}
	}
	s.DTLBMisses = r.uvarint()
	s.TLBMissGroups = r.intMap()
	s.AvgLatency = r.float()
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return r.err
	}
	out.Summary = s
	*a = out
	return nil
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// appendIntMap writes m as a count (-1 for nil) and its pairs in
// increasing key order.
func appendIntMap(buf []byte, m map[int]int) []byte {
	if m == nil {
		return binary.AppendVarint(buf, -1)
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	buf = binary.AppendVarint(buf, int64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendVarint(buf, int64(k))
		buf = binary.AppendVarint(buf, int64(m[k]))
	}
	return buf
}

// analysisReader consumes a FOS1 payload. The first failure sticks:
// later reads return zero values, and the caller checks err once at the
// end.
type analysisReader struct {
	b   []byte
	err error
}

func (r *analysisReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("experiments: analysis artifact: "+format, args...)
	}
	r.b = nil
}

func (r *analysisReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	// n > 1 with a zero final byte is an overlong encoding; rejecting it
	// keeps decode → encode the identity.
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("bad or truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *analysisReader) varint() int64 {
	u := r.uvarint()
	// Zig-zag, as binary.Varint decodes it.
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *analysisReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *analysisReader) float() float64 {
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// count reads an element count and checks it against the remaining
// bytes, given that each element takes at least minSize of them.
func (r *analysisReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail("count %d exceeds the %d remaining bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *analysisReader) string() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// intMap reads a map written by appendIntMap, rejecting keys that are
// not strictly increasing.
func (r *analysisReader) intMap() map[int]int {
	n := r.varint()
	if n == -1 {
		return nil
	}
	if n < 0 || n > int64(len(r.b)/2) {
		r.fail("map count %d invalid for the %d remaining bytes", n, len(r.b))
		return nil
	}
	m := make(map[int]int, n)
	prev := 0
	for i := int64(0); i < n && r.err == nil; i++ {
		k := r.int()
		if i > 0 && k <= prev {
			r.fail("map keys out of order")
		}
		m[k], prev = r.int(), k
	}
	return m
}
