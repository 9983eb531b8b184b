package workload

import (
	"sort"
	"testing"

	"fomodel/internal/isa"
)

func TestAllProfilesValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 12 {
		t.Fatalf("%d profiles, want 12", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestNamesSortedAndUnique(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("names not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate profile %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"bzip", "crafty", "eon", "gap", "gcc", "gzip",
		"mcf", "parser", "perl", "twolf", "vortex", "vpr"} {
		if !seen[want] {
			t.Errorf("missing SPECint benchmark %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mcf" {
		t.Fatalf("got %q", p.Name)
	}
	_, err = ByName("nonsense")
	want := `workload: unknown profile "nonsense" (known: [bzip crafty eon gap gcc gzip mcf parser perl twolf vortex vpr])`
	if err == nil || err.Error() != want {
		t.Fatalf("unknown profile error = %v, want %q", err, want)
	}
}

// TestByNameReturnsCopy pins the table's immutability: mutating a
// profile returned by ByName or Profiles never reaches the next lookup.
func TestByNameReturnsCopy(t *testing.T) {
	p, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	want := p
	p.NumBlocks = -1
	p.Mix[0] = 99
	ps := Profiles()
	for i := range ps {
		ps[i].NumBlocks = -1
	}
	Names()[0] = "mutated"
	again, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if again != want {
		t.Fatalf("ByName after mutation = %+v, want %+v", again, want)
	}
	if Profiles()[0].NumBlocks == -1 || Names()[0] == "mutated" {
		t.Fatal("Profiles or Names exposed the shared table")
	}
}

func TestProfileCharacterDistinctions(t *testing.T) {
	// The paper-facing contrasts that the profiles are built around.
	byName := map[string]Profile{}
	for _, p := range Profiles() {
		byName[p.Name] = p
	}
	vpr, vortex, mcf, gzip, gcc := byName["vpr"], byName["vortex"], byName["mcf"], byName["gzip"], byName["gcc"]

	// vpr: tightest dependences (low beta) and longest latencies.
	if vpr.DepShortFrac <= vortex.DepShortFrac {
		t.Error("vpr should have more short dependences than vortex")
	}
	if vpr.Mix[3]+vpr.Mix[1]+vpr.Mix[2] <= vortex.Mix[3]+vortex.Mix[1]+vortex.Mix[2] {
		t.Error("vpr should have more long-latency arithmetic than vortex")
	}
	// mcf: the most cold (streaming) data.
	mcfCold := 1 - mcf.DataHotFrac - mcf.DataWarmFrac
	gzipCold := 1 - gzip.DataHotFrac - gzip.DataWarmFrac
	if mcfCold <= gzipCold {
		t.Error("mcf should stream more cold data than gzip")
	}
	// gzip: hardest branches; gcc: biggest code.
	if gzip.HardBranchFrac <= vortex.HardBranchFrac {
		t.Error("gzip should have harder branches than vortex")
	}
	if gcc.NumBlocks <= gzip.NumBlocks {
		t.Error("gcc should have a bigger code footprint than gzip")
	}
}

func TestMeasuredCalibrationBands(t *testing.T) {
	// Lock the measured (not just configured) workload character: the
	// Table-1 structure the whole reproduction rests on. Uses the same
	// idealized measurement as internal/iw but inlined here to avoid an
	// import cycle with the analysis packages: a window-16 unit-latency
	// issue-rate ratio between window sizes approximates beta.
	if testing.Short() {
		t.Skip("calibration measurement is slow")
	}
	measure := func(name string) (ilp16, ilp4 float64) {
		tr, err := Generate(name, 60000, 1)
		if err != nil {
			t.Fatal(err)
		}
		sim := func(window int) float64 {
			finish := make([]int64, tr.Len())
			var lastWriter [isa.NumArchRegs]int
			for i := range lastWriter {
				lastWriter[i] = -1
			}
			type slot struct{ idx, s1, s2 int }
			win := make([]slot, 0, window)
			next, issued := 0, 0
			var now int64 = 1
			fill := func() {
				for len(win) < window && next < tr.Len() {
					in := &tr.Instrs[next]
					s := slot{idx: next, s1: -1, s2: -1}
					if in.Src1 >= 0 {
						s.s1 = lastWriter[in.Src1]
					}
					if in.Src2 >= 0 {
						s.s2 = lastWriter[in.Src2]
					}
					if in.Dest >= 0 {
						lastWriter[in.Dest] = next
					}
					win = append(win, s)
					next++
				}
			}
			ready := func(s slot) bool {
				if s.s1 >= 0 && (finish[s.s1] == 0 || finish[s.s1] > now) {
					return false
				}
				if s.s2 >= 0 && (finish[s.s2] == 0 || finish[s.s2] > now) {
					return false
				}
				return true
			}
			fill()
			for issued < tr.Len() {
				kept := win[:0]
				for _, s := range win {
					if ready(s) {
						finish[s.idx] = now + 1
						issued++
						continue
					}
					kept = append(kept, s)
				}
				win = kept
				fill()
				now++
			}
			return float64(tr.Len()) / float64(now-1)
		}
		return sim(16), sim(4)
	}

	type band struct{ i16, i4 float64 }
	got := map[string]band{}
	for _, name := range []string{"gzip", "vortex", "vpr"} {
		i16, i4 := measure(name)
		got[name] = band{i16, i4}
	}
	// Local beta between windows 4 and 16: log(I16/I4)/log(4).
	beta := func(b band) float64 { return (b.i16 / b.i4) }
	// vortex grows fastest with window, vpr slowest — Table 1's spread.
	if !(beta(got["vortex"]) > beta(got["gzip"]) && beta(got["gzip"]) > beta(got["vpr"])) {
		t.Fatalf("measured growth ordering broken: vortex %v, gzip %v, vpr %v",
			beta(got["vortex"]), beta(got["gzip"]), beta(got["vpr"]))
	}
	// Absolute ILP sanity at window 16.
	if got["vortex"].i16 < 7 || got["vpr"].i16 > 4.5 {
		t.Fatalf("measured ILP bands off: vortex %v (want >7), vpr %v (want <4.5)",
			got["vortex"].i16, got["vpr"].i16)
	}
}
