// Package iw extracts the IW characteristic — the relationship between
// issue-window size W and average issue rate I — from an instruction trace,
// and fits it to the paper's power law I = alpha * W^beta.
//
// Following §3 of the paper, the characteristic is that of an idealized
// machine: no miss-events, an unbounded number of functional units,
// unbounded issue and dispatch width, and unit latencies; the only limited
// resource is the issue window. The resulting curve is implementation
// independent — it reflects only the register dependence structure of the
// benchmark. Non-unit latencies are handled afterwards via Little's law
// (I_L = I_1/L), and a finite machine issue width clips the curve at
// saturation (Fig. 6 / Jouppi's observation).
//
// # Closed form
//
// With unbounded issue width the idealized machine needs no cycle-by-cycle
// simulation. The window fills in program order and a slot frees in the
// cycle its instruction issues, so instruction i enters the window at the
// end of the first cycle c in which at most W-1 of instructions 0..i-1 are
// still unissued, that is #{j < i : t_j > c} < W. That c is X_i, the W-th
// largest issue cycle t_j over j < i (0 while i < W: the window starts
// full). Instruction i issues as soon as it is in the window and both
// source registers are ready:
//
//	t_i = max(X_i + 1, ready(src1), ready(src2))
//
// where ready(r) is t_p + lat(p) for the last instruction p before i that
// wrote r. A register-indexed ready table therefore replaces producer links,
// and IPC is n / max_i t_i, exactly the simulation's n / cycles.
//
// X_i never decreases: adding t_i can only push the W-th largest value up.
// Each window keeps a count of issues per cycle above X and the number of
// them (below W). Adding t_i > X increments both; while that number reaches
// W, X steps forward one cycle and drops the issues counted there. X only
// moves forward, so each instruction costs amortized O(1) per window. The
// live cycles (X, max t] span at most W*maxLat (every issue more than maxLat
// above X waits on a producer that also issued above X), so the counts live
// in a ring of that size, sized once and grown only for extreme latency
// tables. Characteristic updates every window in one pass over the trace.
//
// A positive Options.IssueWidth caps issue per cycle oldest first, which
// breaks the closed form; those curves come from the cycle-by-cycle
// simulation, which is also the closed form's test oracle.
package iw

import (
	"fmt"
	"math/bits"

	"fomodel/internal/isa"
	"fomodel/internal/trace"
)

// Point is one measured point of the IW characteristic.
type Point struct {
	// W is the issue window size in entries.
	W int
	// I is the measured average issue rate (useful instructions per cycle).
	I float64
}

// Options control the idealized machine.
type Options struct {
	// Latencies, when non-nil, replaces unit latencies with the given
	// table. The paper's Table 1 parameters use unit latencies and fold
	// real latencies in through Little's law; the table is exposed for
	// ablation.
	Latencies *isa.LatencyTable
	// IssueWidth, when positive, caps instructions issued per cycle
	// (oldest first). Zero means unbounded (the paper's ideal case);
	// negative is an error.
	IssueWidth int
}

// unitLatencies is the all-ones table of the paper's idealized machine,
// built once instead of per call.
var unitLatencies = func() isa.LatencyTable {
	var t isa.LatencyTable
	for c := range t {
		t[c] = 1
	}
	return t
}()

// DefaultWindows is the window-size sweep of the paper's Fig. 4:
// log2(W) from 1 to 6.
func DefaultWindows() []int { return []int{2, 4, 8, 16, 32, 64} }

// Characteristic measures the IW curve of t at each window size. Every
// input is validated before any work is done.
func Characteristic(t *trace.Trace, windows []int, opts Options) ([]Point, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("iw: empty trace %q", t.Name)
	}
	if len(windows) == 0 {
		return nil, fmt.Errorf("iw: no window sizes given")
	}
	for _, w := range windows {
		if w <= 0 {
			return nil, fmt.Errorf("iw: window size %d must be positive", w)
		}
	}
	if opts.IssueWidth < 0 {
		return nil, fmt.Errorf("iw: issue width %d must not be negative", opts.IssueWidth)
	}
	lat := unitLatencies
	if opts.Latencies != nil {
		lat = *opts.Latencies
		if err := lat.Validate(); err != nil {
			return nil, err
		}
	}
	points := make([]Point, len(windows))
	if opts.IssueWidth == 0 {
		if err := closedForm(t, windows, lat, ringCap, points); err != nil {
			return nil, err
		}
		return points, nil
	}
	// The width-capped simulation shares one dependence derivation and
	// one scratch buffer across the window sizes.
	prod := trace.ComputeProducers(t)
	finish := make([]int64, t.Len())
	for i, w := range windows {
		if i > 0 {
			clear(finish)
		}
		ipc, err := simulate(t, w, opts.IssueWidth, lat, prod, finish)
		if err != nil {
			return nil, err
		}
		points[i] = Point{W: w, I: ipc}
	}
	return points, nil
}

// windowState is one window size's share of the closed-form pass.
type windowState struct {
	w     int
	x     int64 // W-th largest issue cycle so far (0 while fewer than W)
	above int   // issues after cycle x; always below w between steps
	last  int64 // latest issue cycle
	// cnt[c & mask] counts the issues at cycle c, for c in (x, x+len(cnt)).
	cnt  []int32
	mask int64
	// ready[regSlot(r)] is the cycle register r's value is ready. The
	// RegNone slot stays 0; sinkSlot takes results with no destination.
	ready [isa.NumArchRegs + 2]int64
}

// sinkSlot is the ready-table slot written by instructions without a
// destination register; no source reads it.
const sinkSlot = 0

// regSlot maps a register to its ready-table slot: RegNone to 1, the
// architectural registers above it.
func regSlot(r int16) int { return int(r) + 2 }

// ringCap caps the up-front span of a window's count ring; only extreme
// latency tables grow past it.
const ringCap = 1 << 16

// closedForm fills points with the unbounded-width issue rate of t at
// each window size, from one pass over the trace (see the package
// comment). Each count ring starts sized for its W*maxLat bound, or
// for capSpan if that is smaller.
func closedForm(t *trace.Trace, windows []int, lat isa.LatencyTable, capSpan int64, points []Point) error {
	maxLat := int64(1)
	for _, l := range lat {
		maxLat = max(maxLat, int64(l))
	}
	size := func(w int) int { return ringSize(min(min(int64(w), capSpan)*min(maxLat, capSpan), capSpan)) }
	total := 0
	for _, w := range windows {
		total += size(w)
	}
	backing := make([]int32, total)
	ws := make([]windowState, len(windows))
	for k, w := range windows {
		n := size(w)
		ws[k] = windowState{w: w, cnt: backing[:n:n], mask: int64(n - 1)}
		backing = backing[n:]
	}
	for i := range t.Instrs {
		in := &t.Instrs[i]
		l := int64(lat[in.Class])
		src1, src2, dest := regSlot(in.Src1), regSlot(in.Src2), regSlot(in.Dest)
		if in.Dest < 0 {
			dest = sinkSlot
		}
		for k := range ws {
			s := &ws[k]
			ti := max(s.x+1, s.ready[src1], s.ready[src2])
			s.ready[dest] = ti + l
			s.last = max(s.last, ti)
			if ti-s.x >= int64(len(s.cnt)) {
				s.grow(ti)
			}
			s.cnt[ti&s.mask]++
			s.above++
			for s.above >= s.w {
				s.x++
				s.above -= int(s.cnt[s.x&s.mask])
				s.cnt[s.x&s.mask] = 0
			}
		}
	}
	for k := range ws {
		if ws[k].last <= 0 {
			return fmt.Errorf("iw: degenerate simulation of %q", t.Name)
		}
		points[k] = Point{W: windows[k], I: float64(t.Len()) / float64(ws[k].last)}
	}
	return nil
}

// grow re-lays the counts into a ring that also holds cycle ti.
func (s *windowState) grow(ti int64) {
	cnt := make([]int32, ringSize(ti-s.x))
	mask := int64(len(cnt) - 1)
	for c := s.x + 1; c < s.x+int64(len(s.cnt)); c++ {
		cnt[c&mask] = s.cnt[c&s.mask]
	}
	s.cnt, s.mask = cnt, mask
}

// ringSize is the smallest power of two above span.
func ringSize(span int64) int {
	return 1 << bits.Len64(uint64(span))
}

// simulate runs the idealized window-limited simulation cycle by cycle
// and returns the average issue rate. prod and finish are supplied by
// the caller so a sweep shares one dependence derivation and one
// scratch buffer; finish must be zeroed on entry.
func simulate(t *trace.Trace, window, issueWidth int, lat isa.LatencyTable,
	prod []trace.Producer, finish []int64) (float64, error) {
	n := t.Len()

	// slot is one window entry: the instruction index, its producer
	// indices (-1 if none/ready), and the memoized earliest issue cycle
	// (0 until every producer has issued).
	type slot struct {
		idx        int32
		src1, src2 int32
		readyAt    int64
	}
	win := make([]slot, 0, window)
	next := 0 // fill frontier
	issued := 0
	var now int64 = 1

	fill := func() {
		for len(win) < window && next < n {
			s := slot{idx: int32(next), src1: prod[next].Src1, src2: prod[next].Src2}
			if s.src1 < 0 && s.src2 < 0 {
				s.readyAt = 1 // no producers: ready from the first cycle
			}
			win = append(win, s)
			next++
		}
	}

	// ready memoizes the slot's earliest issue cycle once all producers
	// have issued; finish entries are write-once, so the memo never goes
	// stale (see uarch.entryReady for the same pattern).
	ready := func(s *slot) bool {
		if s.readyAt != 0 {
			return s.readyAt <= now
		}
		readyAt := int64(1)
		if s.src1 >= 0 {
			f := finish[s.src1]
			if f == 0 {
				return false
			}
			if f > readyAt {
				readyAt = f
			}
		}
		if s.src2 >= 0 {
			f := finish[s.src2]
			if f == 0 {
				return false
			}
			if f > readyAt {
				readyAt = f
			}
		}
		s.readyAt = readyAt
		return readyAt <= now
	}

	fill()
	for issued < n {
		// Issue every ready instruction this cycle (oldest first), up to
		// the optional width cap.
		kept := win[:0]
		issuedThisCycle := 0
		for i := range win {
			s := &win[i]
			if (issueWidth <= 0 || issuedThisCycle < issueWidth) && ready(s) {
				finish[s.idx] = now + int64(lat.Latency(t.Instrs[s.idx].Class))
				issuedThisCycle++
				issued++
				continue
			}
			kept = append(kept, *s)
		}
		win = kept
		fill()
		now++
	}
	cycles := now - 1
	if cycles <= 0 {
		return 0, fmt.Errorf("iw: degenerate simulation of %q", t.Name)
	}
	return float64(n) / float64(cycles), nil
}
