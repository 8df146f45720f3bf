package main

import (
	"testing"
	"time"
)

// TestFleetCountsRepeat runs the fleet workloads twice on the same seed:
// the fleets' byte and drop counts must repeat exactly, or their
// end-to-end byte metrics could not be compared across commits.
func TestFleetCountsRepeat(t *testing.T) {
	tmp := t.TempDir()
	for _, spec := range []fleetSpec{crowd, regions} {
		spec.rounds = 8
		counts := func() [3]float64 {
			st := runFleet(spec, subSeed(7, 0), false, tmp, time.Now())
			if st.failed {
				t.Fatalf("%s: checks failed: %v", spec.name, st.errs)
			}
			if st.submitted == 0 {
				t.Fatalf("%s: no moves submitted", spec.name)
			}
			c := float64(st.commits)
			return [3]float64{
				float64(st.downBytes) / c,
				float64(st.upBytes) / c,
				100 * float64(st.drops) / float64(st.submitted),
			}
		}
		a, b := counts(), counts()
		if a != b {
			t.Errorf("%s: down/up bytes per action and drop %% differ across same-seed runs: %v vs %v", spec.name, a, b)
		}
	}
}

// TestFrameParser feeds a frame stream split at every offset and checks
// the frame, batch and envelope counts.
func TestFrameParser(t *testing.T) {
	var stream []byte
	frame := func(typ byte, payload []byte) {
		n := len(payload)
		stream = append(stream, byte(n), byte(n>>8), byte(n>>16), byte(n>>24), typ)
		stream = append(stream, payload...)
	}
	batch := make([]byte, 40)
	batch[25] = 3 // envelope count
	frame(2, batch)
	frame(4, make([]byte, 8))
	frame(2, batch)
	for cut := 0; cut <= len(stream); cut++ {
		var p frameParser
		f1, b1, e1 := p.feed(stream[:cut])
		f2, b2, e2 := p.feed(stream[cut:])
		if f1+f2 != 3 || b1+b2 != 2 || e1+e2 != 6 {
			t.Fatalf("cut %d: frames %d batches %d envs %d", cut, f1+f2, b1+b2, e1+e2)
		}
	}
}
