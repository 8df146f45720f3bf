package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/manhattan"
	"seve/internal/shard"
	"seve/internal/wire"
	"seve/internal/world"
)

// fleetSpec is an in-process workload: every player is a core.Client
// driven from the one generator goroutine, talking to the engine
// through encoded and decoded wire frames. A rep is a fixed number of
// rounds, so its work and counts are a function of the seed alone.
type fleetSpec struct {
	name    string
	players int
	side    float64 // world edge length
	walls   int
	shards  int  // 0 or 1: single-lane core.Server; >1: shard.Router
	journal bool // attach a durable.Store (FsyncInterval)
	rounds  int  // timed rounds, after a warm-up of 2·stagger rounds
	// stagger spreads moves over rounds: player p moves in round r when
	// (p+r)%stagger == 0, so 1 moves everyone every round.
	stagger int
}

// crowd packs 64 players into a 100×100 plaza with ~2,000 walls and
// moves all of them every round: dense conflicts, large closures, work
// concentrated in client reconciliation, the Algorithm 6/7 walks and
// First Bound ticks. Single lane, no journal.
var crowd = fleetSpec{name: "crowd", players: 64, side: 100, walls: 2000, rounds: 12, stagger: 1}

// regions spreads 256 players over 1000×1000 behind a 2-lane router with
// a journal, moving a quarter of them per round. Moving everyone every
// round jams avatars along the world's edges over long runs and drives
// the drop share far above Table II's 0–9%; staggered, these reps drop
// about 0.03% of their moves.
var regions = fleetSpec{name: "regions", players: 256, side: 1000, walls: 10_000, shards: 2, journal: true, rounds: 112, stagger: 4}

// serverConfig is seve-server's default configuration for a world:
// infobound mode, resume window 16, integrity on at audit rate 0.05,
// RTT 100 ms, and the bound parameters derived from the world.
func serverConfig(wcfg manhattan.Config, shards int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards = shards
	cfg.ResumeWindow = 16
	cfg.RTTMs = 100
	cfg.MaxSpeed = wcfg.Speed
	cfg.DefaultRadius = wcfg.EffectRange
	cfg.Threshold = 1.5 * wcfg.Visibility
	cfg.AuditRate = 0.05
	return cfg
}

func worldConfig(seed int64, side float64, walls, avatars int) manhattan.Config {
	wcfg := manhattan.DefaultConfig()
	wcfg.Seed = seed
	wcfg.Width, wcfg.Height = side, side
	wcfg.NumWalls = walls
	wcfg.NumAvatars = avatars
	return wcfg
}

type player struct {
	id     action.ClientID
	avatar world.ObjectID
	cl     *core.Client
	sentAt []int64 // submit time (ns since epoch) by action Seq-1
	inbox  []wire.Msg
	moves  int
	done   int // moves committed or dropped
}

type upMsg struct {
	from action.ClientID
	msg  wire.Msg
	req  uint64
}

// fleetRun is one rep of a fleet workload.
type fleetRun struct {
	spec    fleetSpec
	tr      *tracer
	epoch   time.Time
	w       *manhattan.World
	eng     core.Engine
	flusher core.Flusher
	store   *durable.Store
	dir     string
	wal     map[string]int64 // largest size seen per WAL segment
	players []*player
	up      []upMsg
	buf     []byte
	root    int32
	st      *repStats
}

// runFleet runs one rep of spec on the world generated from seed.
// Journals go in a fresh directory under tmp.
func runFleet(spec fleetSpec, seed int64, traced bool, tmp string, epoch time.Time) *repStats {
	st := &repStats{}
	f := &fleetRun{spec: spec, tr: newTracer(false, epoch), epoch: epoch, st: st, root: -1, wal: map[string]int64{}}
	runtime.GC()

	t0 := time.Now()
	if err := f.setup(seed, tmp); err != nil {
		st.fail("setup: %v", err)
		f.teardown()
		return st
	}
	st.setup = time.Since(t0)

	// Every player's first two moves are a warm-up, played untraced
	// before the timed phase and left out of its figures. A player's
	// first replies carry its first sight of its neighbours: in regions
	// they cost ten times the steady bytes per move, and in crowd the
	// first round has nothing in flight to conflict with.
	warm := 2 * spec.stagger
	for r := 0; r < warm; r++ {
		f.round(r)
	}
	base := *st
	f.tr.on = traced

	rt0, cpu0, w0 := readRuntime(), cpuTime(), time.Now()
	for r := warm; r < warm+spec.rounds; r++ {
		f.round(r)
		if h := heapBytes(); h > st.heapPeak {
			st.heapPeak = h
		}
	}
	st.wall, st.cpu, st.rt = time.Since(w0), cpuTime()-cpu0, rt0.to(readRuntime())

	f.check()
	st.since(base)
	f.teardown()
	st.tracers = append(st.tracers, f.tr)
	return st
}

func (f *fleetRun) setup(seed int64, tmp string) error {
	spec := f.spec
	wcfg := worldConfig(seed, spec.side, spec.walls, spec.players)
	f.w = manhattan.NewWorld(wcfg)
	curWorld.Store(f.w)
	init := f.w.InitialState(0)
	cfg := serverConfig(wcfg, spec.shards)

	var rec *durable.Recovery
	if spec.journal {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(tmp, "journal-*")
		if err != nil {
			return err
		}
		f.dir = dir
		f.store, rec, err = durable.Open(dir, init, journalOptions())
		if err != nil {
			return err
		}
		init = rec.State
	}
	f.eng = shard.NewEngine(cfg, init)
	f.flusher, _ = f.eng.(core.Flusher)
	var boot uint64
	if rec != nil {
		// What seve-server does at boot: rewind to the recovered point,
		// then journal on.
		if r, ok := f.eng.(core.Restorer); ok {
			r.Restore(rec.Restore)
			boot = r.Boot()
		}
		f.eng.SetJournal(f.store)
	}
	for i := 1; i <= spec.players; i++ {
		id := action.ClientID(i)
		f.eng.RegisterClient(id, 0)
		cl := core.NewClient(id, cfg, init)
		cl.SetBoot(boot)
		f.players = append(f.players, &player{id: id, avatar: manhattan.AvatarID(i), cl: cl})
	}
	return nil
}

func journalOptions() durable.Options {
	return durable.Options{Fsync: durable.FsyncInterval, ResumeWindow: 16}
}

// round submits this round's moves all at once, lets the engine answer
// them, runs the First Bound tick while they are still in flight, then
// delivers until every queue is empty.
func (f *fleetRun) round(r int) {
	now := float64(r) * f.w.Cfg.StepMs
	f.root = f.tr.begin(spRound, 0, -1)
	for _, p := range f.players {
		if (int(p.id)+r)%f.spec.stagger == 0 {
			f.move(p)
		}
	}
	f.serve(now)
	t := f.tr.begin(spEngineTick, 0, f.root)
	t0 := time.Now()
	out := f.eng.Tick(now)
	f.st.engineNs += int64(time.Since(t0))
	f.tr.end(t)
	f.route(out)
	for f.busy() {
		f.deliver()
		f.serve(now)
	}
	f.tr.end(f.root)
	if f.store != nil {
		if s := f.store.Stats(); s.Emitted-s.Durable > f.st.lagMax {
			f.st.lagMax = s.Emitted - s.Durable
		}
		if f.tr.on {
			f.sampleWAL()
		}
	}
}

// sampleWAL records the size of every WAL segment in the journal
// directory. Checkpoints delete superseded segments, so the bytes a run
// logged are the sum of each segment's largest size seen.
func (f *fleetRun) sampleWAL() {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		f.st.fail("journal dir: %v", err)
		return
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "wal-") {
			continue
		}
		if fi, err := e.Info(); err == nil && fi.Size() > f.wal[e.Name()] {
			f.wal[e.Name()] = fi.Size()
		}
	}
}

func (f *fleetRun) move(p *player) {
	id := p.cl.NextActionID()
	req := reqID(id)
	s := f.tr.begin(spNewMove, req, f.root)
	mv, err := f.w.NewMove(id, p.avatar, p.cl.Optimistic())
	f.tr.end(s)
	if err != nil {
		f.st.fail("player %d: %v", p.id, err)
		return
	}
	s = f.tr.begin(spClientSubmit, req, f.root)
	sub, _ := p.cl.Submit(mv)
	f.tr.end(s)
	p.sentAt = append(p.sentAt, int64(time.Since(f.epoch)))
	p.moves++
	f.st.submitted++
	f.upload(p.id, sub, req)
}

// frame encodes msg as one wire frame and decodes it back, counting the
// frame's bytes: every message between a player and the engine crosses
// as the bytes a socket would carry.
func (f *fleetRun) frame(msg wire.Msg, req uint64) (wire.Msg, int) {
	s := f.tr.begin(spEncode, req, f.root)
	f.buf = wire.AppendFrame(f.buf[:0], msg)
	f.tr.end(s)
	s = f.tr.begin(spDecode, req, f.root)
	m, err := wire.Decode(wire.MsgType(f.buf[4]), f.buf[5:])
	f.tr.end(s)
	if err != nil {
		f.st.fail("decode %T: %v", msg, err)
	}
	return m, len(f.buf)
}

func (f *fleetRun) upload(from action.ClientID, msg wire.Msg, req uint64) {
	m, n := f.frame(msg, req)
	if m == nil {
		return
	}
	f.st.upBytes += int64(n)
	f.st.upFrames++
	f.up = append(f.up, upMsg{from: from, msg: m, req: req})
}

// serve hands every queued upload to the engine in arrival order, then
// closes the router's epoch so buffered work is answered now.
func (f *fleetRun) serve(now float64) {
	for i, u := range f.up {
		name := spEngineSubmit
		if _, ok := u.msg.(*wire.Completion); ok {
			name = spEngineCompletion
		}
		s := f.tr.begin(name, u.req, f.root)
		t0 := time.Now()
		out := f.eng.HandleMsg(u.from, u.msg, now)
		f.st.engineNs += int64(time.Since(t0))
		f.tr.end(s)
		f.up[i] = upMsg{}
		f.route(out)
	}
	f.up = f.up[:0]
	if f.flusher != nil {
		s := f.tr.begin(spEngineFlush, 0, f.root)
		t0 := time.Now()
		out := f.flusher.Flush()
		f.st.engineNs += int64(time.Since(t0))
		f.tr.end(s)
		f.route(out)
	}
}

func (f *fleetRun) route(out core.ServerOutput) {
	for _, r := range out.Replies {
		if r.To < 1 || int(r.To) > len(f.players) {
			f.st.fail("reply to unknown client %d", r.To)
			continue
		}
		var req uint64
		if b, ok := r.Msg.(*wire.Batch); ok && len(b.Envs) == 1 {
			req = reqID(b.Envs[0].Act.ID())
		}
		m, n := f.frame(r.Msg, req)
		if m == nil {
			continue
		}
		f.st.downBytes += int64(n)
		f.st.downFrames++
		p := f.players[r.To-1]
		p.inbox = append(p.inbox, m)
	}
}

func (f *fleetRun) busy() bool {
	if len(f.up) > 0 {
		return true
	}
	for _, p := range f.players {
		if len(p.inbox) > 0 {
			return true
		}
	}
	return false
}

// deliver feeds each player its queued frames, in player order.
func (f *fleetRun) deliver() {
	for _, p := range f.players {
		for i, m := range p.inbox {
			name := spClientMsg
			if b, ok := m.(*wire.Batch); ok {
				name = spClientBatch
				f.st.batches++
				f.st.batchEnvs += int64(len(b.Envs))
			}
			s := f.tr.begin(name, 0, f.root)
			out := p.cl.HandleMsg(m)
			f.tr.end(s)
			p.inbox[i] = nil
			f.absorb(p, out)
		}
		p.inbox = p.inbox[:0]
	}
}

func (f *fleetRun) absorb(p *player, out core.ClientOutput) {
	now := int64(time.Since(f.epoch))
	for _, c := range out.Commits {
		if c.ActID.Client != p.id || int(c.ActID.Seq) > len(p.sentAt) {
			f.st.fail("player %d: commit for unknown action %v", p.id, c.ActID)
			continue
		}
		f.st.lat = append(f.st.lat, float64(now-p.sentAt[c.ActID.Seq-1])/1e3)
		f.st.commits++
		p.done++
	}
	f.st.drops += len(out.DroppedLocal)
	p.done += len(out.DroppedLocal)
	for _, m := range out.ToServer {
		var req uint64
		if c, ok := m.(*wire.Completion); ok {
			for _, cm := range out.Commits {
				if cm.Seq == c.Seq {
					req = reqID(cm.ActID)
				}
			}
		}
		f.upload(p.id, m, req)
	}
	for _, v := range out.Violations {
		f.st.fail("violation: %s", v)
	}
	if len(out.Revoked) > 0 || len(out.ToPeers) > 0 {
		f.st.fail("player %d: unexpected revocations or peer relays", p.id)
	}
}

// check runs the output checks after the timed phase: every move
// resolved, honest load raised no integrity verdicts, the engine
// installed exactly the committed moves, and each player's stable copy
// of its own avatar is the authoritative one. With a journal, the
// directory must also recover the authoritative state.
func (f *fleetRun) check() {
	st := f.st
	for _, p := range f.players {
		if p.done != p.moves || p.cl.QueueLen() != 0 {
			st.fail("player %d: %d of %d moves resolved, %d queued", p.id, p.done, p.moves, p.cl.QueueLen())
		}
	}
	st.srv = f.eng.Metrics()
	if r, ok := f.eng.(*shard.Router); ok {
		st.router = r.RouterMetrics()
	}
	checkIntegrity(st)
	if got := f.eng.Installed(); got != uint64(st.commits) {
		st.fail("engine installed %d positions, %d moves committed", got, st.commits)
	}
	auth := f.eng.Authoritative()
	for _, p := range f.players {
		mine, _, ok := p.cl.Stable().Latest(p.avatar)
		want, ok2 := auth.Get(p.avatar)
		if !ok || !ok2 || !mine.Equal(want) {
			st.fail("player %d: stable avatar %v, authoritative %v", p.id, mine, want)
		}
		m := p.cl.Metrics()
		st.reconciles += m.Reconciliations
		st.blindWrites += m.AppliedBlind
		st.stableVersions += m.StableVersions
		st.clients++
	}
	if f.store != nil {
		f.checkJournal(auth)
	}
}

// checkJournal closes the store, then recovers the directory and
// compares the recovered state with the engine's at the installed point.
func (f *fleetRun) checkJournal(auth *world.State) {
	st := f.st
	if err := f.store.Sync(); err != nil {
		st.fail("journal sync: %v", err)
	}
	f.sampleWAL()
	for _, n := range f.wal {
		st.walBytes += n
	}
	ds := f.store.Stats()
	st.groupCommits, st.checkpoints = ds.GroupCommits, ds.Checkpoints
	s := f.tr.begin(spDurableClose, 0, -1)
	err := f.store.Close()
	f.tr.end(s)
	f.store = nil
	if err != nil {
		st.fail("journal close: %v", err)
		return
	}
	store, rec, err := durable.Open(f.dir, nil, journalOptions())
	if err != nil {
		st.fail("journal recover: %v", err)
		return
	}
	defer store.Close()
	if rec.Restore.UpTo != f.eng.Installed() {
		st.fail("journal recovered through %d, engine installed %d", rec.Restore.UpTo, f.eng.Installed())
	}
	if !rec.State.Equal(auth) {
		st.fail("journal recovered state differs from the authoritative state")
	}
}

func (f *fleetRun) teardown() {
	if f.store != nil {
		f.store.Close()
	}
	if c, ok := f.eng.(interface{ Close() }); ok {
		c.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// checkIntegrity fails the rep on any integrity verdict: the load is
// honest, so quarantines and audit divergences mean a broken engine.
func checkIntegrity(st *repStats) {
	m := st.srv
	if m.QuarantinedClients != 0 || m.AuditDivergences != 0 {
		st.fail("integrity: %d quarantines, %d audit divergences on honest load", m.QuarantinedClients, m.AuditDivergences)
	}
}

// since leaves in st what the rep counted after the snapshot base,
// taken at the end of the warm-up: the timed phase's moves, bytes,
// frames, engine time and latencies. The whole rep's move counts stay
// in allSubmitted and allCommits.
func (st *repStats) since(base repStats) {
	st.allSubmitted, st.allCommits = st.submitted, st.commits
	st.submitted -= base.submitted
	st.commits -= base.commits
	st.drops -= base.drops
	st.upBytes -= base.upBytes
	st.upFrames -= base.upFrames
	st.downBytes -= base.downBytes
	st.downFrames -= base.downFrames
	st.batches -= base.batches
	st.batchEnvs -= base.batchEnvs
	st.engineNs -= base.engineNs
	st.lat = st.lat[len(base.lat):]
}

func tmpDir(work string) string { return filepath.Join(work, "tmp") }

func (st *repStats) fail(format string, args ...any) {
	if len(st.errs) < 20 {
		st.errs = append(st.errs, fmt.Sprintf(format, args...))
	}
	st.failed = true
}
