package core

import (
	"testing"

	"seve/internal/action"
	"seve/internal/wire"
	"seve/internal/world"
)

// remoteAct is a testAction from another client, stamped at seq.
func remoteAct(seq uint64, origin action.ClientID, delta float64, ids ...world.ObjectID) action.Envelope {
	set := world.NewIDSet(ids...)
	return action.Envelope{Seq: seq, Origin: origin, Act: &testAction{
		id: action.ID{Client: origin, Seq: uint32(seq)}, rs: set, ws: set, delta: delta,
	}}
}

// TestEscapingResultsDoNotAlias holds every Result the client engine
// hands out — Submit's return value, Commit.Res, an own Completion.Res
// and a FailureTolerant remote Completion.Res — next to a deep copy
// taken when it was handed out, then drives more batches, a drop and
// reconciliations through the same client. The engine evaluates through
// two reused transactions and refreshes queued optimistic results in
// place, so any escaping Result that was not cloned at the point it
// escaped would change under the holder.
func TestEscapingResultsDoNotAlias(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	cfg.FailureTolerant = true
	c := NewClient(1, cfg, initWorld(4))

	type held struct {
		what      string
		res, want action.Result
	}
	var holds []held
	hold := func(what string, r action.Result) {
		holds = append(holds, held{what, r, r.Clone()})
	}
	submit := func(delta float64, ids ...world.ObjectID) *testAction {
		set := world.NewIDSet(ids...)
		a := &testAction{id: c.NextActionID(), rs: set, ws: set, delta: delta}
		_, v := c.Submit(a)
		hold("Submit result", v)
		return a
	}
	absorb := func(out ClientOutput) {
		t.Helper()
		if len(out.Violations) > 0 {
			t.Fatalf("violation: %s", out.Violations[0])
		}
		committed := map[uint64]bool{}
		for _, cm := range out.Commits {
			hold("Commit.Res", cm.Res)
			committed[cm.Seq] = true
		}
		for _, m := range out.ToServer {
			if cm, ok := m.(*wire.Completion); ok {
				what := "remote Completion.Res"
				if committed[cm.Seq] {
					what = "own Completion.Res"
				}
				hold(what, cm.Res)
			}
		}
	}
	own := func(seq uint64, a *testAction) action.Envelope {
		return action.Envelope{Seq: seq, Origin: 1, Act: a}
	}

	// Two queued writers of object 1; the second's optimistic result is
	// what a reconcile refreshes in place.
	a1 := submit(10, 1)
	a2 := submit(20, 1)
	a3 := submit(30, 2)
	// A remote write lands first, so a1's stable result differs from its
	// optimistic one: reconcile re-applies a2 and a3 through scratchTx.
	absorb(c.HandleBatch(&wire.Batch{ClientSeq: 1, Envs: []action.Envelope{remoteAct(1, 2, 100, 1)}}))
	absorb(c.HandleBatch(&wire.Batch{ClientSeq: 2, Envs: []action.Envelope{own(2, a1)}}))
	if c.Reconciliations() == 0 {
		t.Fatal("a1's commit did not reconcile; the workload no longer exercises the in-place refresh")
	}
	// More stable evaluations through stableTx, each writing values the
	// held Results never had, a drop that reconciles, and more submits.
	absorb(c.HandleBatch(&wire.Batch{ClientSeq: 3, Envs: []action.Envelope{
		remoteAct(3, 2, 1000, 1, 2), remoteAct(4, 3, 5000, 2),
	}}))
	absorb(c.HandleDrop(&wire.Drop{ActID: a3.ID()}))
	a4 := submit(40, 1, 2)
	absorb(c.HandleBatch(&wire.Batch{ClientSeq: 4, Envs: []action.Envelope{
		remoteAct(5, 2, 7, 1), own(6, a2), remoteAct(7, 3, 9, 2), own(8, a4),
	}}))
	absorb(c.HandleBatch(&wire.Batch{ClientSeq: 5, Envs: []action.Envelope{remoteAct(9, 2, 11, 1, 2)}}))

	seen := map[string]bool{}
	for _, h := range holds {
		seen[h.what] = true
		if !h.res.Equal(h.want) {
			t.Errorf("%s changed after it was handed out: now %+v, was %+v", h.what, h.res, h.want)
		}
	}
	for _, what := range []string{"Submit result", "Commit.Res", "own Completion.Res", "remote Completion.Res"} {
		if !seen[what] {
			t.Errorf("workload handed out no %s", what)
		}
	}
}

// TestHandleBatchRemoteMoveAllocs pins the stable evaluation cost on a
// warmed client: applying one remote move allocates the stable store's
// copy of the written value (MVStore.WriteAt) and the output's Applied
// slice, and nothing for the evaluation itself.
func TestHandleBatchRemoteMoveAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeIncomplete
	c := NewClient(1, cfg, initWorld(8))
	const runs = 100
	batches := make([]*wire.Batch, runs+8)
	for i := range batches {
		// Like a move: read the mover and a neighbour, write the mover.
		seq := uint64(i + 1)
		env := remoteAct(seq, 2, 1, world.ObjectID(1+i%4), 5)
		env.Act.(*testAction).ws = world.IDSet{world.ObjectID(1 + i%4)}
		batches[i] = &wire.Batch{ClientSeq: seq, InstalledUpTo: seq, Envs: []action.Envelope{env}}
	}
	next := 0
	handle := func() {
		out := c.HandleBatch(batches[next])
		next++
		if len(out.Applied) != 1 || len(out.Violations) != 0 {
			// Only counts are formatted: passing out itself would move it
			// to the heap and count against the engine.
			t.Fatalf("batch %d: %d applied, %d violations", next, len(out.Applied), len(out.Violations))
		}
	}
	for i := 0; i < 6; i++ { // warm the interner, version chains and tx
		handle()
	}
	if n := testing.AllocsPerRun(runs, handle); n != 2 {
		t.Fatalf("HandleBatch with one remote move: %v allocs, want 2 (WriteAt's clone, Applied)", n)
	}
}
