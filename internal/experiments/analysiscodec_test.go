package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fomodel/internal/artifact"
	"fomodel/internal/cache"
	"fomodel/internal/iw"
	"fomodel/internal/stats"
	"fomodel/internal/uarch"
	"fomodel/internal/workload"
)

// codecTestN is the trace length of the real analyses below, the one
// the benchmark daemons serve: long enough that every bench has I-cache
// miss gaps to encode (TestAnalysisCodecRoundTrip checks).
const codecTestN = 20000

// realAnalysis computes the analysis bundle of a built-in bench the way
// the suite does, with a data TLB when tlb is set so TLBMissGroups is
// populated too.
func realAnalysis(t testing.TB, bench string, tlb bool) *AnalysisArtifact {
	t.Helper()
	tr, err := workload.Generate(bench, codecTestN, 1)
	if err != nil {
		t.Fatal(err)
	}
	scfg := statsConfig(uarch.DefaultConfig(), 128)
	if tlb {
		c := cache.DefaultTLB()
		scfg.TLB = &c
	}
	a, err := ComputeAnalysis(nil, tr, iw.DefaultWindows(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// syntheticAnalysis covers what real analyses never produce: nil maps
// next to empty ones, no gaps, negative and extreme integers, and
// float64 values whose bits DeepEqual alone would not pin (NaN, -0).
func syntheticAnalysis() *AnalysisArtifact {
	s := &stats.Summary{
		Name:             "synthetic\x00ü",
		Instructions:     -7,
		Branches:         math.MaxUint64,
		Mispredicts:      0,
		MispredictGroups: nil,
		LongMissGroups:   map[int]int{},
		ROBSize:          math.MinInt64,
		DTLBMisses:       1 << 40,
		TLBMissGroups:    map[int]int{-3: math.MaxInt64, 0: 0, 9: -1},
		AvgLatency:       math.Copysign(0, -1),
	}
	s.Mix[0] = math.NaN()
	s.Mix[1] = math.Inf(-1)
	s.Mix[2] = math.SmallestNonzeroFloat64
	return &AnalysisArtifact{
		Points:  []iw.Point{{W: 0, I: -1.5}, {W: math.MaxInt64, I: math.Float64frombits(0x7ff8000000000001)}},
		Law:     iw.PowerLaw{Alpha: 0.1 + 0.2, Beta: -2.5, R2: 1},
		Summary: s,
	}
}

// floatBits lists the bits of every float64 in a, in codec order.
func floatBits(a *AnalysisArtifact) []uint64 {
	var out []uint64
	for _, p := range a.Points {
		out = append(out, math.Float64bits(p.I))
	}
	out = append(out, math.Float64bits(a.Law.Alpha), math.Float64bits(a.Law.Beta), math.Float64bits(a.Law.R2))
	for _, f := range a.Summary.Mix {
		out = append(out, math.Float64bits(f))
	}
	return append(out, math.Float64bits(a.Summary.AvgLatency))
}

// roundTrip encodes a, decodes the bytes, and checks the copy is exact:
// DeepEqual on every field (NaN aside), the same float64 bits, and the
// same bytes when re-encoded.
func roundTrip(t *testing.T, name string, a *AnalysisArtifact) {
	t.Helper()
	b, err := a.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	var got AnalysisArtifact
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !reflect.DeepEqual(floatBits(&got), floatBits(a)) {
		t.Errorf("%s: float64 bits changed in the round trip", name)
	}
	// NaN never DeepEquals itself; the bits were compared above.
	clearNaN := func(a *AnalysisArtifact) *AnalysisArtifact {
		c, s := *a, *a.Summary
		c.Points = append([]iw.Point(nil), a.Points...)
		for i := range c.Points {
			if math.IsNaN(c.Points[i].I) {
				c.Points[i].I = 0
			}
		}
		for i := range s.Mix {
			if math.IsNaN(s.Mix[i]) {
				s.Mix[i] = 0
			}
		}
		c.Summary = &s
		return &c
	}
	if !reflect.DeepEqual(clearNaN(&got), clearNaN(a)) {
		t.Errorf("%s: round trip differs:\n got %+v\nwant %+v", name, got.Summary, a.Summary)
	}
	again, err := got.MarshalBinary()
	if err != nil || !bytes.Equal(again, b) {
		t.Errorf("%s: re-encoding the decoded artifact changed its bytes (err %v)", name, err)
	}
}

// TestAnalysisCodecRoundTrip pins the exact round trip for the real
// analyses of every built-in bench and for a synthetic artifact.
func TestAnalysisCodecRoundTrip(t *testing.T) {
	names := workload.Names()
	if len(names) != 12 {
		t.Fatalf("%d built-in benches, want 12", len(names))
	}
	for i, name := range names {
		a := realAnalysis(t, name, i%2 == 1)
		if a.Summary.ICacheMissGaps == nil {
			t.Errorf("%s: no I-cache miss gaps; the round trip would not cover them", name)
		}
		roundTrip(t, name, a)
	}
	roundTrip(t, "synthetic", syntheticAnalysis())

	// Empty gaps decode as nil, the form stats.Analyze produces.
	a := syntheticAnalysis()
	a.Summary.ICacheMissGaps = []int32{}
	b, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got AnalysisArtifact
	if err := got.UnmarshalBinary(b); err != nil || got.Summary.ICacheMissGaps != nil {
		t.Errorf("empty gaps decoded as %#v (err %v), want nil", got.Summary.ICacheMissGaps, err)
	}

	if _, err := (&AnalysisArtifact{}).MarshalBinary(); err == nil {
		t.Error("an artifact without a summary encoded")
	}
}

// TestAnalysisCodecDeterministic pins that equal artifacts encode to
// equal bytes, whatever order their maps were filled in.
func TestAnalysisCodecDeterministic(t *testing.T) {
	x, y := syntheticAnalysis(), syntheticAnalysis()
	x.Summary.LongMissGroups = map[int]int{}
	y.Summary.LongMissGroups = map[int]int{}
	for k := 1; k <= 64; k++ {
		x.Summary.LongMissGroups[k] = k * k
		y.Summary.LongMissGroups[65-k] = (65 - k) * (65 - k)
	}
	bx, err := x.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		by, err := y.MarshalBinary()
		if err != nil || !bytes.Equal(bx, by) {
			t.Fatalf("equal artifacts encoded differently (err %v)", err)
		}
	}
	r1, err := realAnalysis(t, "gzip", false).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := realAnalysis(t, "gzip", false).MarshalBinary()
	if err != nil || !bytes.Equal(r1, r2) {
		t.Errorf("two computations of one analysis encoded differently (err %v)", err)
	}
}

// TestAnalysisCodecRejects pins that malformed payloads are errors, never
// panics, and leave the receiver untouched.
func TestAnalysisCodecRejects(t *testing.T) {
	good, err := realAnalysis(t, "gzip", true).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "analysis_v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"wrong magic":    append([]byte("FOS2"), good[4:]...),
		"trailing byte":  append(append([]byte(nil), good...), 0),
		"version-1 gob":  v1,
		"overlong count": append([]byte("FOS1\x86\x00"), good[5:]...),
		"huge count":     []byte("FOS1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
	}
	for i := range good {
		bad[fmt.Sprintf("truncated to %d bytes", i)] = good[:i]
	}
	for name, data := range bad {
		sentinel := &AnalysisArtifact{Law: iw.PowerLaw{Alpha: 42}}
		if err := sentinel.UnmarshalBinary(data); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
		if sentinel.Law.Alpha != 42 || sentinel.Summary != nil {
			t.Fatalf("%s: a failed decode changed the receiver", name)
		}
	}

	// Out-of-order map keys break the one-encoding-per-artifact rule.
	a := syntheticAnalysis()
	a.Summary.TLBMissGroups = map[int]int{1: 1, 2: 2}
	b, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndex(b, []byte{4, 2, 2, 4, 4}) // count 2, then 1→1, 2→2 as zig-zag varints
	if i < 0 {
		t.Fatal("map encoding not found")
	}
	copy(b[i+1:], []byte{4, 4, 2, 2})
	var got AnalysisArtifact
	if err := got.UnmarshalBinary(b); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("unsorted map keys: err = %v", err)
	}
}

// TestForeignAnalysisPayloadRecomputed pins the store path: a payload
// that is not FOS1 (here a version-1 gob bundle) under the current key
// is a LookupAnalysis miss, and ComputeAnalysis recomputes and rewrites
// a valid artifact that later lookups serve.
func TestForeignAnalysisPayloadRecomputed(t *testing.T) {
	store, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := LoadOrGenerateTrace(store, "gzip", 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	windows, scfg := iw.DefaultWindows(), statsConfig(uarch.DefaultConfig(), 128)
	key := AnalysisKey(tr.ContentID, windows, scfg)
	v1, err := os.ReadFile(filepath.Join("testdata", "analysis_v1.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("analysis", key, v1); err != nil {
		t.Fatal(err)
	}
	if _, ok := LookupAnalysis(store, tr.ContentID, tr.Len(), windows, scfg); ok {
		t.Fatal("LookupAnalysis served a foreign payload")
	}
	a, err := ComputeAnalysis(store, tr, windows, scfg)
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := store.Get("analysis", key)
	if !ok || bytes.Equal(stored, v1) {
		t.Fatal("ComputeAnalysis did not rewrite the artifact")
	}
	got, ok := LookupAnalysis(store, tr.ContentID, tr.Len(), windows, scfg)
	if !ok || !reflect.DeepEqual(got, a) {
		t.Fatalf("lookup after recompute: ok=%v, equal=%v", ok, reflect.DeepEqual(got, a))
	}
}

// TestAnalysisCodecFieldDrift pins the fields the FOS1 codec writes.
// Unlike gob, the fixed codec does not pick up a new field by itself: a
// field added to any of these types must be added to MarshalBinary and
// UnmarshalBinary, analysisFormatVersion bumped, and this list updated.
func TestAnalysisCodecFieldDrift(t *testing.T) {
	want := map[reflect.Type]string{
		reflect.TypeOf(AnalysisArtifact{}): "Points []iw.Point, Law iw.PowerLaw, Summary *stats.Summary",
		reflect.TypeOf(iw.Point{}):         "W int, I float64",
		reflect.TypeOf(iw.PowerLaw{}):      "Alpha float64, Beta float64, R2 float64",
		reflect.TypeOf(stats.Summary{}): "Name string, Instructions int, Mix [7]float64, " +
			"Branches uint64, Mispredicts uint64, MispredictGroups map[int]int, " +
			"ICacheShort uint64, ICacheLong uint64, DCacheShort uint64, DCacheLong uint64, " +
			"LongMissGroups map[int]int, ROBSize int, ICacheMissGaps []int32, " +
			"DTLBMisses uint64, TLBMissGroups map[int]int, AvgLatency float64",
	}
	for typ, fields := range want {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			got = append(got, f.Name+" "+f.Type.String())
		}
		if g := strings.Join(got, ", "); g != fields {
			t.Errorf("%v fields changed; extend the FOS1 codec and bump analysisFormatVersion:\n got %s\nwant %s",
				typ, g, fields)
		}
	}
}

// TestAnalysisBundleClosedFormBytes pins the stored analysis bytes to
// the IW characteristic's cycle simulation: on every bench, the FOS1
// bundle ComputeAnalysis builds from the closed form encodes to the
// same bytes as one built from the simulated points. An issue width of
// at least the largest window never binds, so it runs the simulation
// with unbounded issue.
func TestAnalysisBundleClosedFormBytes(t *testing.T) {
	windows := iw.DefaultWindows()
	for _, name := range workload.Names() {
		tr, err := workload.Generate(name, codecTestN, 1)
		if err != nil {
			t.Fatal(err)
		}
		scfg := statsConfig(uarch.DefaultConfig(), 128)
		closed, err := ComputeAnalysis(nil, tr, windows, scfg)
		if err != nil {
			t.Fatal(err)
		}
		points, err := iw.Characteristic(tr, windows, iw.Options{IssueWidth: windows[len(windows)-1]})
		if err != nil {
			t.Fatal(err)
		}
		law, err := iw.Fit(points)
		if err != nil {
			t.Fatal(err)
		}
		simulated := &AnalysisArtifact{Points: points, Law: law, Summary: closed.Summary}
		got, err := closed.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := simulated.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: closed-form bundle differs from the simulated one\n got %v\nwant %v",
				name, closed.Points, simulated.Points)
		}
	}
}

// TestAnalysisDecodeAllocs is the deterministic allocation gate on the
// warm-store decode: a real analysis decodes in a handful of
// allocations (the summary, its name, slices and maps), where gob's
// per-decoder type compilation needed hundreds.
func TestAnalysisDecodeAllocs(t *testing.T) {
	b, err := realAnalysis(t, "gzip", false).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		var a AnalysisArtifact
		if err := a.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("UnmarshalBinary of a %d-instruction analysis: %.0f allocs, want ≤ 16", codecTestN, allocs)
	}
}

// FuzzAnalysisArtifactDecode hardens the decoder against forged store
// payloads: no input panics, no input allocates more than a small
// multiple of its own size (every count is checked against the bytes
// left), and any input that decodes is the one canonical encoding of
// what it decodes to.
func FuzzAnalysisArtifactDecode(f *testing.F) {
	for _, a := range []*AnalysisArtifact{syntheticAnalysis(), realAnalysis(f, "mcf", true)} {
		b, err := a.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	if v1, err := os.ReadFile(filepath.Join("testdata", "analysis_v1.gob")); err == nil {
		f.Add(v1)
	}
	f.Add([]byte("FOS1"))
	f.Add([]byte("FOS1\xff\xff\xff\xff\x0f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		var a AnalysisArtifact
		runtime.ReadMemStats(&before)
		err := a.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		b, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("decode → encode changed the bytes:\n in  %x\n out %x", data, b)
		}
	})
}
