package seve_test

// Benchmarks regenerating (at reduced scale) the paper's evaluation
// artifacts, one per figure/table, plus micro-benchmarks of the hot
// protocol paths. `go test -bench=. -benchmem` runs them all; the full
// artifacts come from `go run ./cmd/seve-bench`.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/experiments"
	"seve/internal/geom"
	"seve/internal/manhattan"
	"seve/internal/shard"
	"seve/internal/wire"
	"seve/internal/world"
)

// runOnce executes one scaled-down experiment run per iteration.
func runOnce(b *testing.B, rc experiments.RunConfig) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(rc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Committed == 0 {
			b.Fatal("no commits")
		}
	}
}

func scaled(arch experiments.Arch, clients int) experiments.RunConfig {
	rc := experiments.DefaultRunConfig(arch, clients)
	rc.MovesPerClient = 20
	rc.World.NumWalls = 2000
	rc.World.BaseCostMs = 7.44
	rc.World.PerWallCostMs = 0
	rc.SlackMs = 30_000
	return rc
}

// --- Figure 6: response time vs clients ---

func BenchmarkFig6SEVE32(b *testing.B)      { runOnce(b, scaled(experiments.ArchSEVE, 32)) }
func BenchmarkFig6Central32(b *testing.B)   { runOnce(b, scaled(experiments.ArchCentral, 32)) }
func BenchmarkFig6Broadcast32(b *testing.B) { runOnce(b, scaled(experiments.ArchBroadcast, 32)) }
func BenchmarkFig6SEVE64(b *testing.B)      { runOnce(b, scaled(experiments.ArchSEVE, 64)) }
func BenchmarkFig6Central64(b *testing.B)   { runOnce(b, scaled(experiments.ArchCentral, 64)) }
func BenchmarkFig6Broadcast64(b *testing.B) { runOnce(b, scaled(experiments.ArchBroadcast, 64)) }

// --- Figure 7: response time vs per-action complexity (25 clients) ---

func benchFig7(b *testing.B, arch experiments.Arch, costMs float64) {
	rc := scaled(arch, 25)
	rc.World.BaseCostMs = costMs
	runOnce(b, rc)
}

func BenchmarkFig7SEVECost25ms(b *testing.B)      { benchFig7(b, experiments.ArchSEVE, 25) }
func BenchmarkFig7CentralCost25ms(b *testing.B)   { benchFig7(b, experiments.ArchCentral, 25) }
func BenchmarkFig7BroadcastCost25ms(b *testing.B) { benchFig7(b, experiments.ArchBroadcast, 25) }

// --- Figure 8 / Table II: density and dropping ---

func benchFig8(b *testing.B, arch experiments.Arch, visibility float64) {
	rc := experiments.DefaultRunConfig(arch, 60)
	rc.World.Width, rc.World.Height = 250, 250
	rc.World.NumWalls = 3000
	rc.World.Visibility = visibility
	rc.MovesPerClient = 15
	rc.Spacing = 4
	rc.BandwidthBps = 1_000_000
	rc.SlackMs = 30_000
	cfg := core.DefaultConfig()
	cfg.RTTMs = 2 * rc.LatencyMs
	cfg.MaxSpeed = rc.World.Speed
	cfg.DefaultRadius = rc.World.EffectRange
	cfg.Threshold = 45
	rc.Core = cfg
	runOnce(b, rc)
}

func BenchmarkFig8DenseNoDrop(b *testing.B) { benchFig8(b, experiments.ArchSEVENoDrop, 70) }
func BenchmarkFig8DenseDrop(b *testing.B)   { benchFig8(b, experiments.ArchSEVE, 70) }

func BenchmarkTable2EffectRange11(b *testing.B) {
	rc := experiments.DefaultRunConfig(experiments.ArchSEVE, 60)
	rc.World.Width, rc.World.Height = 250, 250
	rc.World.NumWalls = 3000
	rc.World.Visibility = 20
	rc.World.EffectRange = 11
	rc.MovesPerClient = 15
	rc.Spacing = 4
	rc.BandwidthBps = 1_000_000
	cfg := core.DefaultConfig()
	cfg.RTTMs = 2 * rc.LatencyMs
	cfg.MaxSpeed = rc.World.Speed
	cfg.DefaultRadius = 11
	cfg.Threshold = 30
	rc.Core = cfg
	runOnce(b, rc)
}

// --- Figure 9: traffic ---

func benchFig9(b *testing.B, arch experiments.Arch) {
	rc := scaled(arch, 32)
	rc.World.BaseCostMs = 1
	runOnce(b, rc)
}

func BenchmarkFig9SEVE(b *testing.B)      { benchFig9(b, experiments.ArchSEVE) }
func BenchmarkFig9Central(b *testing.B)   { benchFig9(b, experiments.ArchCentral) }
func BenchmarkFig9Broadcast(b *testing.B) { benchFig9(b, experiments.ArchBroadcast) }

// --- Figure 10: SEVE vs RING ---

func benchFig10(b *testing.B, arch experiments.Arch) {
	rc := experiments.DefaultRunConfig(arch, 48)
	rc.MovesPerClient = 20
	rc.World.Width, rc.World.Height = 250, 250
	rc.World.NumWalls = 2500
	rc.World.Visibility = 65
	rc.World.BaseCostMs = 1
	rc.World.PerWallCostMs = 0.002
	rc.RingVisibility = 65
	runOnce(b, rc)
}

func BenchmarkFig10SEVE(b *testing.B) { benchFig10(b, experiments.ArchSEVE) }
func BenchmarkFig10Ring(b *testing.B) { benchFig10(b, experiments.ArchRing) }

// --- Single-server limit: real engine throughput ---

// BenchmarkServerSubmit measures the real core.Server's per-submission
// cost with a 1000-entry uncommitted queue — the quantity behind the
// paper's 3500-client limit (Section V-B1) and our limit experiment.
func BenchmarkServerSubmit(b *testing.B) {
	const clients = 1000
	wcfg := manhattan.DefaultConfig()
	wcfg.Width, wcfg.Height = 10_000, 10_000
	wcfg.NumWalls = 1000
	wcfg.NumAvatars = clients
	w := manhattan.NewWorld(wcfg)
	init := w.InitialState(0)

	cfg := core.DefaultConfig()
	cfg.MaxSpeed = wcfg.Speed
	cfg.Threshold = 45
	srv := core.NewServer(cfg, init)
	for i := 1; i <= clients; i++ {
		srv.RegisterClient(action.ClientID(i), 0)
	}
	// Preload one round of uncommitted actions.
	for i := 1; i <= clients; i++ {
		cid := action.ClientID(i)
		mv, err := w.NewMove(action.ID{Client: cid, Seq: 1}, manhattan.AvatarID(i), init)
		if err != nil {
			b.Fatal(err)
		}
		srv.HandleSubmit(cid, &wire.Submit{Env: action.Envelope{Origin: cid, Act: mv}}, 0)
	}

	moves := make([]*wire.Submit, clients)
	for i := 1; i <= clients; i++ {
		cid := action.ClientID(i)
		mv, err := w.NewMove(action.ID{Client: cid, Seq: 2}, manhattan.AvatarID(i), init)
		if err != nil {
			b.Fatal(err)
		}
		moves[i-1] = &wire.Submit{Env: action.Envelope{Origin: cid, Act: mv}}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := moves[i%clients]
		srv.HandleSubmit(m.Env.Origin, m, float64(i))
	}
}

// --- Micro-benchmarks of hot paths ---

func BenchmarkIDSetIntersects(b *testing.B) {
	x := world.NewIDSet(1, 5, 9, 13, 17, 21, 25)
	y := world.NewIDSet(2, 6, 10, 14, 18, 22, 25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.Intersects(y) {
			b.Fatal("expected intersection")
		}
	}
}

func BenchmarkMVStoreReadAt(b *testing.B) {
	m := world.NewMVStore()
	for seq := uint64(0); seq < 64; seq++ {
		m.WriteAt(1, seq*3, world.Value{float64(seq)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := m.ReadAt(1, uint64(i%190)); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkMVStorePruneBelow is one client GC step (Section III-C): a
// batch writes a few of the objects the client knows, then the server's
// installed point lets it prune. Known objects far outnumber one batch's
// writes, as on a spread-out world.
func BenchmarkMVStorePruneBelow(b *testing.B) {
	const known, perBatch = 1024, 4
	m := world.NewMVStore()
	for id := 0; id < known; id++ {
		m.WriteAt(world.ObjectID(id), 0, world.Value{0, 0, 0, 0})
	}
	val := world.Value{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		for j := 0; j < perBatch; j++ {
			m.WriteAt(world.ObjectID((i*perBatch+j)%known), seq, val)
		}
		m.PruneBelow(seq)
	}
}

func BenchmarkMoveApply(b *testing.B) {
	wcfg := manhattan.DefaultConfig()
	wcfg.NumWalls = 10_000
	wcfg.NumAvatars = 16
	w := manhattan.NewWorld(wcfg)
	st := w.InitialState(0)
	mv, err := w.NewMove(action.ID{Client: 1, Seq: 1}, manhattan.AvatarID(1), st)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := action.Eval(mv, world.StateView{S: st})
		if !res.OK {
			b.Fatal("move aborted")
		}
	}
}

// BenchmarkClientApplyRemote is one remote-move batch into a warmed
// client: Algorithm 4 step 4 evaluates the move against ζCS at its serial
// position through the client's reused stable transaction, installs the
// write, copies it through to ζCO and garbage-collects at the batch's
// install point. The batch value is reused, so allocations are the
// engine's own.
func BenchmarkClientApplyRemote(b *testing.B) {
	wcfg := manhattan.DefaultConfig()
	wcfg.Width, wcfg.Height = 100, 100
	wcfg.NumWalls = 200
	wcfg.NumAvatars = 64
	w := manhattan.NewWorld(wcfg)
	init := w.InitialState(0)
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncomplete
	cl := core.NewClient(1, cfg, init)
	var moves []*manhattan.MoveAction
	for av := 2; av <= 17; av++ {
		mv, err := w.NewMove(action.ID{Client: action.ClientID(av), Seq: 1}, manhattan.AvatarID(av), init)
		if err != nil {
			b.Fatal(err)
		}
		moves = append(moves, mv)
	}
	batch := &wire.Batch{Envs: make([]action.Envelope, 1)}
	apply := func(i int) {
		seq := uint64(i + 1)
		mv := moves[i%len(moves)]
		batch.ClientSeq, batch.InstalledUpTo = seq, seq
		batch.Envs[0] = action.Envelope{Seq: seq, Origin: mv.ID().Client, Act: mv}
		if out := cl.HandleBatch(batch); len(out.Applied) != 1 {
			b.Fatalf("batch %d applied %d actions", seq, len(out.Applied))
		}
	}
	const warm = 64
	for i := 0; i < warm; i++ {
		apply(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(warm + i)
	}
}

// BenchmarkTxBlindWrite evaluates a closure blind write of n objects, in
// the ascending id order the server emits them, through one reused
// transaction — the client's stable path for the largest write logs it
// sees.
func BenchmarkTxBlindWrite(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("writes=%d", n), func(b *testing.B) {
			writes := make([]world.Write, n)
			for i := range writes {
				writes[i] = world.Write{ID: world.ObjectID(3 * (i + 1)), Val: world.Value{1, 2, 3, 4}}
			}
			bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: 1}, writes)
			view := world.StateView{S: world.NewState()}
			tx := world.NewTx(view)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tx.Reset(view)
				if res := action.EvalTx(bw, tx); len(res.Writes) != n {
					b.Fatalf("%d writes, want %d", len(res.Writes), n)
				}
			}
		})
	}
}

func BenchmarkWireBatchRoundTrip(b *testing.B) {
	bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: 1},
		[]world.Write{{ID: 1, Val: world.Value{1, 2, 3, 4}}, {ID: 2, Val: world.Value{5, 6, 7, 8}}})
	batch := &wire.Batch{Envs: []action.Envelope{{Seq: 1, Origin: action.OriginServer, Act: bw}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := wire.Encode(batch)
		if _, err := wire.Decode(wire.TypeBatch, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentIndexCountWithin(b *testing.B) {
	wcfg := manhattan.DefaultConfig()
	wcfg.NumWalls = 100_000
	w := manhattan.NewWorld(wcfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExactVisibleWalls(geom.Vec{X: float64(i%900) + 50, Y: 500})
	}
}

// --- Durability layer ---

// BenchmarkDurableCommitGroup measures the engine-side cost of feeding
// the journal: encode into a pooled buffer plus a channel send (the
// committer fsyncs on its own schedule under FsyncInterval).
func BenchmarkDurableCommitGroup(b *testing.B) {
	st, _, err := durable.Open(b.TempDir(), nil, durable.Options{
		Fsync:         durable.FsyncInterval,
		SnapshotEvery: 1 << 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	res := action.Result{OK: true, Writes: []world.Write{
		{ID: 1, Val: world.Value{1, 2, 3, 4}},
	}}
	recs := make([]core.CommitRecord, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs[0] = core.CommitRecord{Seq: uint64(i + 1), Res: res}
		st.CommitGroup(uint64(i+1), 0, recs)
	}
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDurableRecover measures crash recovery: Open against a
// 5000-record log tail (each iteration replays a fresh copy of the
// crashed directory, copied off the clock).
func BenchmarkDurableRecover(b *testing.B) {
	src := b.TempDir()
	st, _, err := durable.Open(src, nil, durable.Options{
		Fsync:         durable.FsyncCheckpoint,
		SnapshotEvery: 1 << 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	res := action.Result{OK: true, Writes: []world.Write{
		{ID: 1, Val: world.Value{1, 2, 3, 4}},
	}}
	for i := 0; i < 5000; i++ {
		st.CommitGroup(uint64(i+1), 0, []core.CommitRecord{{Seq: uint64(i + 1), Res: res}})
	}
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	// Capture the crash image before Close's shutdown checkpoint would
	// flatten the tail away.
	files := map[string][]byte{}
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		files[e.Name()] = raw
	}
	st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		for name, raw := range files {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		st2, rec, err := durable.Open(dir, nil, durable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Restore.UpTo != 5000 {
			b.Fatalf("recovered up to %d", rec.Restore.UpTo)
		}
		b.StopTimer()
		st2.Close()
		b.StartTimer()
	}
}

// --- Engine rewrite benchmarks: conflict index + parallel push ---

// BenchmarkClosureDeepQueue measures one Algorithm 7 chain walk
// (Server.ChainLength) against a deep uncommitted queue, with and
// without the reverse conflict index. The indexed walk visits only
// conflicting entries, so its cost tracks the chain, not the queue.
func BenchmarkClosureDeepQueue(b *testing.B) {
	for _, depth := range []int{1000, 10_000} {
		for _, indexed := range []bool{true, false} {
			b.Run(fmt.Sprintf("depth=%d/indexed=%v", depth, indexed), func(b *testing.B) {
				const clients = 100
				wcfg := manhattan.DefaultConfig()
				wcfg.Width, wcfg.Height = 10_000, 10_000
				wcfg.NumWalls = 1000
				wcfg.NumAvatars = clients
				w := manhattan.NewWorld(wcfg)
				init := w.InitialState(0)

				cfg := core.DefaultConfig()
				cfg.Mode = core.ModeIncomplete
				cfg.MaxSpeed = wcfg.Speed
				cfg.DisableConflictIndex = !indexed
				srv := core.NewServer(cfg, init)
				for i := 1; i <= clients; i++ {
					srv.RegisterClient(action.ClientID(i), 0)
				}
				for n := 0; n < depth; n++ {
					i := n%clients + 1
					cid := action.ClientID(i)
					mv, err := w.NewMove(action.ID{Client: cid, Seq: uint32(n/clients + 1)},
						manhattan.AvatarID(i), init)
					if err != nil {
						b.Fatal(err)
					}
					srv.HandleSubmit(cid, &wire.Submit{Env: action.Envelope{Origin: cid, Act: mv}}, 0)
				}
				if srv.QueueLen() != depth {
					b.Fatalf("queue depth %d, want %d", srv.QueueLen(), depth)
				}
				probe, err := w.NewMove(action.ID{Client: 1, Seq: uint32(depth)},
					manhattan.AvatarID(1), init)
				if err != nil {
					b.Fatal(err)
				}
				rs := probe.ReadSet()

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if srv.ChainLength(rs) == 0 {
						b.Fatal("empty chain")
					}
				}
			})
		}
	}
}

// --- Delivery path benchmarks: pooled encoding + incremental reconcile ---

// benchBatch builds a push batch of nEnvs blind-write envelopes, the
// shape the First Bound scheduler fans out every tick.
func benchBatch(nEnvs int) *wire.Batch {
	envs := make([]action.Envelope, nEnvs)
	for i := range envs {
		bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: uint32(i + 1)},
			[]world.Write{
				{ID: world.ObjectID(2*i + 1), Val: world.Value{1, 2, 3, 4}},
				{ID: world.ObjectID(2*i + 2), Val: world.Value{5, 6, 7, 8}},
			})
		envs[i] = action.Envelope{Seq: uint64(i + 1), Origin: action.OriginServer, Act: bw}
	}
	return &wire.Batch{Envs: envs, Push: true, InstalledUpTo: 7, ClientSeq: 9}
}

// BenchmarkEncodeBatch compares the allocating encoder against the
// pooled append-style path for one 32-envelope push batch.
func BenchmarkEncodeBatch(b *testing.B) {
	batch := benchBatch(32)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(wire.Encode(batch)) == 0 {
				b.Fatal("empty encoding")
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		buf := wire.GetBuf(batch.WireSize())
		defer func() { wire.PutBuf(buf) }()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wire.EncodeTo(buf, batch)
			if len(buf) == 0 {
				b.Fatal("empty encoding")
			}
		}
	})
}

// BenchmarkPushFanOut encodes one 32-envelope batch for 64 recipients —
// the per-tick fan-out — comparing per-recipient encoding against the
// encode-once frame cache the transport dispatch uses. Sibling batches
// share the envelope slice and differ only in the 21-byte header.
func BenchmarkPushFanOut(b *testing.B) {
	const recipients = 64
	shared := benchBatch(32).Envs
	batches := make([]*wire.Batch, recipients)
	for i := range batches {
		batches[i] = &wire.Batch{Envs: shared, Push: true, InstalledUpTo: 7, ClientSeq: uint64(i + 1)}
	}
	b.Run("per-recipient", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, m := range batches {
				if len(wire.Encode(m)) == 0 {
					b.Fatal("empty encoding")
				}
			}
		}
	})
	b.Run("encode-once", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var cache wire.EncodeCache
			for _, m := range batches {
				f := wire.NewFrameCached(&cache, m)
				if f.Len() == 0 {
					b.Fatal("empty frame")
				}
				f.Release()
			}
			cache.Reset()
		}
	})
}

// reconcileAction is a local action for the client reconciliation
// benchmark: reads rs, writes sum+delta into ws (same dependence shape
// as the core package's protocol-test action).
type reconcileAction struct {
	id     action.ID
	rs, ws world.IDSet
	delta  float64
}

func (a *reconcileAction) ID() action.ID         { return a.id }
func (a *reconcileAction) Kind() action.Kind     { return 2000 }
func (a *reconcileAction) ReadSet() world.IDSet  { return a.rs }
func (a *reconcileAction) WriteSet() world.IDSet { return a.ws }
func (a *reconcileAction) MarshalBody() []byte   { return make([]byte, 8) }

func (a *reconcileAction) Apply(tx *world.Tx) bool {
	sum := 0.0
	for _, id := range a.rs {
		v, ok := tx.Read(id)
		if !ok {
			return false
		}
		sum += v[0]
	}
	for _, id := range a.ws {
		tx.Write(id, world.Value{sum + a.delta})
	}
	return true
}

// BenchmarkClientReconcileDeepQueue measures one Algorithm 3 run against
// a 64-deep in-flight queue: an Information Bound drop arrives for the
// oldest action, the client rolls back and re-applies the remaining 63,
// and a fresh submission refills the queue. Compares the incremental
// divergence-set path against the full-union rollback it replaces.
func BenchmarkClientReconcileDeepQueue(b *testing.B) {
	for _, incremental := range []bool{true, false} {
		b.Run(fmt.Sprintf("incremental=%v", incremental), func(b *testing.B) {
			const nObjects, depth = 128, 64
			init := world.NewState()
			for i := 1; i <= nObjects; i++ {
				init.Set(world.ObjectID(i), world.Value{float64(i)})
			}
			cfg := core.DefaultConfig()
			cfg.DisableIncrementalReconcile = !incremental
			cl := core.NewClient(1, cfg, init)

			nth := 0
			submit := func() action.ID {
				nth++
				// Offsets 41 and 83 keep the three ids distinct mod 128.
				a := &reconcileAction{
					id: cl.NextActionID(),
					rs: world.NewIDSet(
						world.ObjectID(1+nth%nObjects),
						world.ObjectID(1+(nth+41)%nObjects),
						world.ObjectID(1+(nth+83)%nObjects)),
					delta: float64(nth),
				}
				a.ws = world.NewIDSet(a.rs[0], a.rs[1])
				cl.Submit(a)
				return a.id
			}
			var ids []action.ID
			for i := 0; i < depth; i++ {
				ids = append(ids, submit())
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := cl.HandleDrop(&wire.Drop{ActID: ids[0]})
				if len(out.DroppedLocal) != 1 {
					b.Fatalf("drop not applied: %+v", out)
				}
				ids = append(ids[:0], ids[1:]...)
				ids = append(ids, submit())
			}
			b.StopTimer()
			if got := cl.Reconciliations(); got < b.N {
				b.Fatalf("reconciliations %d < iterations %d", got, b.N)
			}
		})
	}
}

// BenchmarkTickManyClients measures one steady-state First Bound round —
// every client submits a move, completions from the previous round
// install, and one push cycle fans the closure batches out — comparing
// the sequential scheduler (workers=1) against the auto-sized pool
// (workers=0). The two produce byte-identical pushes.
func BenchmarkTickManyClients(b *testing.B) {
	for _, clients := range []int{256, 1024} {
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("clients=%d/workers=%d", clients, workers), func(b *testing.B) {
				wcfg := manhattan.DefaultConfig()
				wcfg.Width, wcfg.Height = 2_000, 2_000
				wcfg.NumWalls = 1000
				wcfg.NumAvatars = clients
				w := manhattan.NewWorld(wcfg)
				init := w.InitialState(0)

				cfg := core.DefaultConfig()
				cfg.Mode = core.ModeFirstBound
				cfg.MaxSpeed = wcfg.Speed
				cfg.DefaultRadius = wcfg.EffectRange
				cfg.PushWorkers = workers
				srv := core.NewServer(cfg, init)
				for i := 1; i <= clients; i++ {
					srv.RegisterClient(action.ClientID(i), 0)
				}
				mirror := init.Clone()
				nextSeq := make([]uint32, clients+1)
				var pending []*wire.Completion
				nowMs := 0.0

				round := func() {
					for _, c := range pending {
						srv.HandleCompletion(c.By, c)
					}
					pending = pending[:0]
					nowMs += 300
					stamp := nowMs - 150 // mid-window: visible to this round's push
					for i := 1; i <= clients; i++ {
						cid := action.ClientID(i)
						nextSeq[i]++
						mv, err := w.NewMove(action.ID{Client: cid, Seq: nextSeq[i]},
							manhattan.AvatarID(i), mirror)
						if err != nil {
							b.Fatal(err)
						}
						out := srv.HandleSubmit(cid, &wire.Submit{Env: action.Envelope{Origin: cid, Act: mv}}, stamp)
						if out.Dropped {
							continue
						}
						for _, rep := range out.Replies {
							batch, ok := rep.Msg.(*wire.Batch)
							if !ok {
								continue
							}
							for _, env := range batch.Envs {
								if env.Act.ID() == mv.ID() {
									res := action.Eval(mv, world.StateView{S: mirror})
									for _, wr := range res.Writes {
										mirror.Set(wr.ID, wr.Val)
									}
									pending = append(pending, &wire.Completion{Seq: env.Seq, By: cid, Res: res})
								}
							}
						}
					}
					srv.Tick(nowMs)
				}
				round() // warm the scratch pools and client positions

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
			})
		}
	}
}

// --- sharded serializer: epoch rounds through shard.Router ---

// shardBenchAction is the disjoint-group workload unit shared with the
// shardscale experiment: read and write the group's hub plus the
// client's own object, so actions conflict densely inside a group and
// never across groups, and each group's spatial position pins it to one
// shard lane.
type shardBenchAction struct {
	id       action.ID
	hub, own world.ObjectID
	pos      geom.Vec
}

const kindShardBench action.Kind = 1600

func (a *shardBenchAction) ID() action.ID         { return a.id }
func (a *shardBenchAction) Kind() action.Kind     { return kindShardBench }
func (a *shardBenchAction) ReadSet() world.IDSet  { return world.IDSet{a.hub, a.own} }
func (a *shardBenchAction) WriteSet() world.IDSet { return world.IDSet{a.hub, a.own} }
func (a *shardBenchAction) MarshalBody() []byte   { return nil }
func (a *shardBenchAction) Influence() geom.Circle {
	return geom.Circle{Center: a.pos, R: 5}
}

func (a *shardBenchAction) Apply(tx *world.Tx) bool {
	h, ok := tx.Read(a.hub)
	if !ok {
		return false
	}
	o, ok := tx.Read(a.own)
	if !ok {
		return false
	}
	tx.Write(a.hub, world.Value{h[0] + 1})
	tx.Write(a.own, world.Value{o[0] + h[0]})
	return true
}

// benchShardedRounds drives shard.NewEngine(cfg) through synchronized
// rounds — every client submits once, the epoch flushes, completions
// arrive next round — reporting per-round cost (one round = clients
// submissions plus a flush, plus a push tick when tick is set).
func benchShardedRounds(b *testing.B, shards int, mode core.Mode, tick bool) {
	const groups, perGroup = 16, 16
	clients := groups * perGroup

	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.Threshold = 1e12
	cfg.Shards = shards
	cfg.ShardCellSize = 100

	init := world.NewState()
	hubOf := func(g int) world.ObjectID { return world.ObjectID(g*(perGroup+1) + 1) }
	ownOf := func(g, i int) world.ObjectID { return world.ObjectID(g*(perGroup+1) + 2 + i) }
	for g := 0; g < groups; g++ {
		init.Set(hubOf(g), world.Value{0})
		for i := 0; i < perGroup; i++ {
			init.Set(ownOf(g, i), world.Value{0})
		}
	}
	eng := shard.NewEngine(cfg, init)
	if c, ok := eng.(interface{ Close() }); ok {
		defer c.Close()
	}
	for c := 1; c <= clients; c++ {
		eng.RegisterClient(action.ClientID(c), 0)
	}

	mirror := init.Clone()
	nextSeq := make([]uint32, clients+1)
	var pending []*wire.Completion
	nowMs := 0.0

	round := func() {
		for _, c := range pending {
			eng.HandleMsg(c.By, c, nowMs)
		}
		pending = pending[:0]
		nowMs += 300

		acts := make(map[action.ID]*shardBenchAction, clients)
		outs := make([]core.ServerOutput, 0, clients+2)
		for c := 1; c <= clients; c++ {
			cid := action.ClientID(c)
			g := (c - 1) / perGroup
			nextSeq[c]++
			a := &shardBenchAction{
				id:  action.ID{Client: cid, Seq: nextSeq[c]},
				hub: hubOf(g), own: ownOf(g, (c-1)%perGroup),
				pos: geom.Vec{X: float64(g)*300 + 50, Y: float64(g)*300 + 50},
			}
			acts[a.id] = a
			outs = append(outs, eng.HandleMsg(cid, &wire.Submit{Env: action.Envelope{Origin: cid, Act: a}}, nowMs))
		}
		if f, ok := eng.(core.Flusher); ok {
			outs = append(outs, f.Flush())
		}
		if tick {
			outs = append(outs, eng.Tick(nowMs))
		}
		for _, out := range outs {
			for _, rep := range out.Replies {
				batch, ok := rep.Msg.(*wire.Batch)
				if !ok {
					continue
				}
				for _, env := range batch.Envs {
					a, mine := acts[env.Act.ID()]
					if !mine || env.Origin != rep.To {
						continue
					}
					res := action.Eval(a, world.StateView{S: mirror})
					for _, wr := range res.Writes {
						mirror.Set(wr.ID, wr.Val)
					}
					pending = append(pending, &wire.Completion{Seq: env.Seq, By: rep.To, Res: res})
					delete(acts, env.Act.ID())
				}
			}
		}
	}
	round() // warm scratch pools, lanes, and client positions

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkShardedSubmit is the submission path per epoch round: 256
// clients in 16 disjoint groups, conflict-dense closures, shard counts
// against the single lane.
func BenchmarkShardedSubmit(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedRounds(b, shards, core.ModeIncomplete, false)
		})
	}
}

// BenchmarkShardedTick adds the First Bound push cycle: every round
// ends in a Tick, whose epoch-flush barrier and push fan-out both run
// through the router.
func BenchmarkShardedTick(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedRounds(b, shards, core.ModeFirstBound, true)
		})
	}
}
