package iw

import (
	"math"
	"testing"

	"fomodel/internal/isa"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

// chainTrace builds n instructions where each depends on its predecessor:
// ILP is exactly 1 at any window size.
func chainTrace(n int) *trace.Trace {
	t := &trace.Trace{Name: "chain"}
	for i := 0; i < n; i++ {
		reg := int16(i % isa.NumArchRegs)
		prev := int16((i - 1) % isa.NumArchRegs)
		in := trace.Instruction{PC: uint64(i * 4), Class: isa.ALU, Dest: reg, Src1: prev, Src2: isa.RegNone}
		if i == 0 {
			in.Src1 = isa.RegNone
		}
		t.Instrs = append(t.Instrs, in)
	}
	return t
}

// independentTrace builds n instructions with no dependences at all.
func independentTrace(n int) *trace.Trace {
	t := &trace.Trace{Name: "indep"}
	for i := 0; i < n; i++ {
		t.Instrs = append(t.Instrs, trace.Instruction{
			PC: uint64(i * 4), Class: isa.ALU,
			Dest: int16(i % isa.NumArchRegs), Src1: isa.RegNone, Src2: isa.RegNone,
		})
	}
	return t
}

func TestChainHasUnitILP(t *testing.T) {
	pts, err := Characteristic(chainTrace(2000), []int{2, 8, 32}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if math.Abs(p.I-1) > 0.01 {
			t.Fatalf("chain ILP at W=%d is %v, want 1", p.W, p.I)
		}
	}
}

func TestIndependentSaturatesAtWindow(t *testing.T) {
	pts, err := Characteristic(independentTrace(4000), []int{2, 8, 32}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if math.Abs(p.I-float64(p.W)) > 0.05*float64(p.W) {
			t.Fatalf("independent ILP at W=%d is %v, want ~W", p.W, p.I)
		}
	}
}

func TestIssueWidthCap(t *testing.T) {
	pts, err := Characteristic(independentTrace(4000), []int{32}, Options{IssueWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].I-4) > 0.05 {
		t.Fatalf("capped ILP %v, want ~4", pts[0].I)
	}
}

func TestLatencyScalesChain(t *testing.T) {
	lat := isa.DefaultLatencies()
	lat[isa.ALU] = 3
	pts, err := Characteristic(chainTrace(2000), []int{16}, Options{Latencies: &lat})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].I-1.0/3) > 0.01 {
		t.Fatalf("3-cycle chain ILP %v, want ~1/3", pts[0].I)
	}
}

func TestCharacteristicErrors(t *testing.T) {
	if _, err := Characteristic(&trace.Trace{Name: "empty"}, []int{4}, Options{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := Characteristic(chainTrace(10), nil, Options{}); err == nil {
		t.Fatal("no windows accepted")
	}
	if _, err := Characteristic(chainTrace(10), []int{0}, Options{}); err == nil {
		t.Fatal("zero window accepted")
	}
	bad := isa.LatencyTable{}
	if _, err := Characteristic(chainTrace(10), []int{4}, Options{Latencies: &bad}); err == nil {
		t.Fatal("invalid latency table accepted")
	}
	// Every window is checked before any pass over the trace: this
	// trace's out-of-range register would panic a pass at W = 2.
	unreadable := chainTrace(10)
	unreadable.Instrs[5].Src1 = isa.NumArchRegs
	for _, width := range []int{0, 4} {
		if _, err := Characteristic(unreadable, []int{2, 0}, Options{IssueWidth: width}); err == nil {
			t.Fatalf("width %d: window list with a zero accepted", width)
		}
	}
	if _, err := Characteristic(chainTrace(10), []int{4}, Options{IssueWidth: -1}); err == nil {
		t.Fatal("negative issue width accepted")
	}
}

func TestFitRecoversSyntheticPowerLaw(t *testing.T) {
	pts := []Point{}
	for _, w := range []int{2, 4, 8, 16, 32} {
		pts = append(pts, Point{W: w, I: 1.4 * math.Pow(float64(w), 0.45)})
	}
	law, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(law.Alpha-1.4) > 0.01 || math.Abs(law.Beta-0.45) > 0.01 {
		t.Fatalf("fit %+v, want alpha=1.4 beta=0.45", law)
	}
	if law.R2 < 0.999 {
		t.Fatalf("R2 %v on exact power law", law.R2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]Point{{W: 2, I: 1}}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := Fit([]Point{{W: 2, I: 1}, {W: 4, I: -1}}); err == nil {
		t.Fatal("negative issue rate accepted")
	}
}

func TestPowerLawEvalWindow(t *testing.T) {
	law := PowerLaw{Alpha: 1.5, Beta: 0.5}
	if got := law.Eval(16); math.Abs(got-6) > 1e-12 {
		t.Fatalf("Eval(16) = %v, want 6", got)
	}
	if got := law.Window(6); math.Abs(got-16) > 1e-9 {
		t.Fatalf("Window(6) = %v, want 16", got)
	}
	if law.Eval(0) != 0 || law.Window(0) != 0 {
		t.Fatal("degenerate inputs not zero")
	}
}

func TestInterpolateAt(t *testing.T) {
	pts := []Point{{W: 2, I: 2}, {W: 8, I: 4}, {W: 32, I: 8}}
	// Exact at measured points.
	for _, p := range pts {
		got, err := InterpolateAt(pts, float64(p.W))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p.I) > 1e-9 {
			t.Fatalf("InterpolateAt(%d) = %v, want %v", p.W, got, p.I)
		}
	}
	// Geometric midpoint between (2,2) and (8,4): W=4 → I = 2·(4/2)^0.5 = 2.83.
	got, err := InterpolateAt(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2*math.Sqrt2) > 1e-9 {
		t.Fatalf("InterpolateAt(4) = %v, want %v", got, 2*math.Sqrt2)
	}
	// Between the last two points the local slope is 0.5 as well.
	got, err = InterpolateAt(pts, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4*math.Sqrt2) > 1e-9 {
		t.Fatalf("InterpolateAt(16) = %v", got)
	}
}

func TestInterpolateAtErrors(t *testing.T) {
	if _, err := InterpolateAt([]Point{{W: 2, I: 1}}, 4); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := InterpolateAt([]Point{{W: 2, I: 1}, {W: 4, I: 2}}, -1); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := InterpolateAt([]Point{{W: 2, I: 1}, {W: 2, I: 2}}, 3); err == nil {
		t.Fatal("degenerate points accepted")
	}
}

func TestWindowSlotFreedAtIssue(t *testing.T) {
	// With a window of 2 and pairs (producer, consumer), the consumer
	// occupies a slot while waiting but the producer's slot frees at
	// issue, so the steady rate stays at ~1 rather than collapsing.
	tr := &trace.Trace{Name: "pairs"}
	for i := 0; i < 1000; i++ {
		prod := trace.Instruction{PC: uint64(i * 8), Class: isa.ALU,
			Dest: int16((2 * i) % isa.NumArchRegs), Src1: isa.RegNone, Src2: isa.RegNone}
		cons := trace.Instruction{PC: uint64(i*8 + 4), Class: isa.ALU,
			Dest: int16((2*i + 1) % isa.NumArchRegs), Src1: prod.Dest, Src2: isa.RegNone}
		tr.Instrs = append(tr.Instrs, prod, cons)
	}
	pts, err := Characteristic(tr, []int{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].I < 0.95 {
		t.Fatalf("pair trace ILP %v at W=2, want ~1", pts[0].I)
	}
}

func TestDefaultWindows(t *testing.T) {
	ws := DefaultWindows()
	if len(ws) != 6 || ws[0] != 2 || ws[len(ws)-1] != 64 {
		t.Fatalf("default windows %v", ws)
	}
}

func TestWidthCapWithLatencies(t *testing.T) {
	// Independent 3-cycle multiplies, width cap 4: throughput is still 4
	// per cycle (fully pipelined units), demonstrating that the cap and
	// latency interact only through the window.
	tr := &trace.Trace{Name: "mulwide"}
	for i := 0; i < 4000; i++ {
		tr.Instrs = append(tr.Instrs, trace.Instruction{
			PC: uint64(i * 4), Class: isa.Mul,
			Dest: int16(i % isa.NumArchRegs), Src1: isa.RegNone, Src2: isa.RegNone,
		})
	}
	lat := isa.DefaultLatencies()
	pts, err := Characteristic(tr, []int{32}, Options{IssueWidth: 4, Latencies: &lat})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].I-4) > 0.1 {
		t.Fatalf("pipelined mul throughput %v, want ~4", pts[0].I)
	}
}

// oracle is the unbounded-width characteristic by cycle simulation, the
// reference the closed form must match bit for bit.
func oracle(t *trace.Trace, windows []int, lat isa.LatencyTable) ([]Point, error) {
	prod := trace.ComputeProducers(t)
	points := make([]Point, len(windows))
	for i, w := range windows {
		ipc, err := simulate(t, w, 0, lat, prod, make([]int64, t.Len()))
		if err != nil {
			return nil, err
		}
		points[i] = Point{W: w, I: ipc}
	}
	return points, nil
}

// checkAgainstOracle fails unless the closed form's points are the
// oracle's, compared as float64 bits. It runs the closed form twice:
// through Characteristic, and with two-slot starting rings, so that
// every ring grows mid-pass and must keep its counts.
func checkAgainstOracle(t *testing.T, tr *trace.Trace, windows []int, lat isa.LatencyTable) {
	t.Helper()
	want, err := oracle(tr, windows, lat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Characteristic(tr, windows, Options{Latencies: &lat})
	if err != nil {
		t.Fatal(err)
	}
	grown := make([]Point, len(windows))
	if err := closedForm(tr, windows, lat, 1, grown); err != nil {
		t.Fatal(err)
	}
	for _, pts := range [][]Point{got, grown} {
		for i := range want {
			if pts[i].W != want[i].W || math.Float64bits(pts[i].I) != math.Float64bits(want[i].I) {
				t.Fatalf("%s (%d instrs, latencies %v): W=%d closed form %v (%#x), simulation %v (%#x)",
					tr.Name, tr.Len(), lat, want[i].W, pts[i].I, math.Float64bits(pts[i].I),
					want[i].I, math.Float64bits(want[i].I))
			}
		}
	}
}

// TestClosedFormMatchesSimulation is the closed form's property test:
// on every benchmark, two seeds, window sizes from 1 to 128, and unit
// and default latencies, it gives the cycle simulation's exact IPC.
func TestClosedFormMatchesSimulation(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	windows := []int{1, 2, 3, 4, 8, 16, 32, 64, 128}
	for _, name := range workload.Names() {
		for _, seed := range []uint64{1, 4242} {
			tr, err := workload.Generate(name, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, tr, windows, unitLatencies)
			checkAgainstOracle(t, tr, windows, isa.DefaultLatencies())
		}
	}
}

// TestClosedFormRingGrowth drives a latency far beyond the up-front ring
// cap, so Characteristic's own rings grow mid-pass.
func TestClosedFormRingGrowth(t *testing.T) {
	tr := chainTrace(8)
	tr.Instrs = append(tr.Instrs, independentTrace(8).Instrs...)
	tr.Instrs = append(tr.Instrs, chainTrace(8).Instrs...)
	lat := unitLatencies
	lat[isa.ALU] = 1 << 17
	checkAgainstOracle(t, tr, []int{1, 2, 3, 64, 128}, lat)
}

// TestClosedFormAllocsFlat gates the closed form's allocations: a fixed
// handful per call (points, window states, count rings), the same at
// 2000 and 20000 instructions.
func TestClosedFormAllocsFlat(t *testing.T) {
	var counts []float64
	for _, n := range []int{2000, 20000} {
		tr, err := workload.Generate("gzip", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := Characteristic(tr, DefaultWindows(), Options{}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] > 3 {
		t.Fatalf("allocs per call at n=2000, 20000: %v, want equal and ≤ 3", counts)
	}
}

// FuzzCharacteristicClosedForm checks the closed form against the cycle
// simulation on arbitrary small traces: four bytes per instruction pick
// its class and its destination and source registers (RegNone, and 16
// registers at both ends of the namespace so dependences are dense),
// lats picks a valid latency table and window the window size.
func FuzzCharacteristicClosedForm(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 2, 1, 0, 2, 3, 2, 1, 3, 1, 3, 2}, uint64(0), uint8(2))
	f.Add([]byte{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, uint64(0x0b030c0401020304), uint8(3))
	f.Add([]byte{2, 0, 0, 0, 2, 1, 1, 1, 2, 2, 2, 2, 1, 3, 2, 1}, uint64(0xffffffffffffffff), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, lats uint64, window uint8) {
		reg := func(b byte) int16 {
			r := int16(b%9) - 1
			if r >= 0 && b >= 128 {
				r += isa.NumArchRegs - 8
			}
			return r
		}
		tr := &trace.Trace{Name: "fuzz"}
		for i := 0; i+4 <= len(data) && tr.Len() < 512; i += 4 {
			tr.Instrs = append(tr.Instrs, trace.Instruction{
				Class: isa.Class(data[i] % byte(isa.NumClasses)),
				Dest:  reg(data[i+1]),
				Src1:  reg(data[i+2]),
				Src2:  reg(data[i+3]),
			})
		}
		if tr.Len() == 0 {
			return
		}
		var lat isa.LatencyTable
		for c := range lat {
			lat[c] = 1 + int(lats>>(8*c)&31)
		}
		checkAgainstOracle(t, tr, []int{1 + int(window%160)}, lat)
	})
}
