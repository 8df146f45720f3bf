package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/transport"
	"seve/internal/wire"
	"seve/internal/world"
)

// sockets runs an in-process transport.Server and two transport.Client
// connections over 127.0.0.1, one player each. The room is small enough
// that the two avatars always read each other, so every closure carries
// the other player's moves and the byte counts barely vary with the
// seed. Each connection's generator submits an open loop at ratePerConn
// moves per second, below saturation, and every move is timed from when
// it was due.
const (
	socketConns   = 2
	socketSide    = 8
	socketWalls   = 4
	ratePerConn   = 2000
	socketDrainTO = 10 * time.Second
)

// sockConn is one connection's client and generator state.
type sockConn struct {
	cl       *transport.Client
	avatar   world.ObjectID
	due      []atomic.Int64 // due time (ns since epoch) by action Seq-1
	sent     int
	resolved atomic.Int64
	commits  atomic.Int64
	// Written by the client's Run goroutine; read after it returns.
	drops   int
	lat     []float64
	lastOwn world.Value
	bad     []string
	runErr  chan error
	// Written by the generator goroutine; read after it returns.
	genBad   []string
	tr       *tracer
	lag      []float64
	heapPeak uint64
}

// runSockets runs one rep: set-up, a paced phase of length d, drain,
// checks and teardown.
func runSockets(seed int64, d time.Duration, traced bool, epoch time.Time) *repStats {
	st := &repStats{}
	runtime.GC()

	t0 := time.Now()
	wcfg := worldConfig(seed, socketSide, socketWalls, socketConns)
	w := manhattan.NewWorld(wcfg)
	curWorld.Store(w)
	init := w.InitialState(0)
	cfg := serverConfig(wcfg, 0)
	srv := transport.NewServer(transport.ServerConfig{Core: cfg, Init: init})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.fail("listen: %v", err)
		return st
	}
	ctr := &wireCounter{}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(&countingListener{Listener: l, ctr: ctr}) }()
	defer func() {
		srv.Close()
		l.Close()
		<-serveDone
	}()

	moves := int(d.Seconds()*ratePerConn) + 1
	conns := make([]*sockConn, 0, socketConns)
	setupTr := newTracer(traced, epoch)
	for i := 0; i < socketConns; i++ {
		s := setupTr.begin(spDial, 0, -1)
		d0 := time.Now()
		cl, err := transport.Dial(l.Addr().String(), cfg, 0)
		st.dialNs = append(st.dialNs, int64(time.Since(d0)))
		setupTr.end(s)
		if err != nil {
			st.fail("dial: %v", err)
			break
		}
		c := &sockConn{cl: cl, avatar: manhattan.AvatarID(int(cl.ID())),
			due: make([]atomic.Int64, moves), runErr: make(chan error, 1), tr: newTracer(traced, epoch)}
		cl.OnCommit = c.onCommit(epoch)
		cl.OnDrop = func(action.ID) { c.drops++; c.resolved.Add(1) }
		conns = append(conns, c)
	}
	st.setup = time.Since(t0)
	st.tracers = append(st.tracers, setupTr)
	if st.failed {
		for _, c := range conns {
			c.cl.Close()
		}
		return st
	}
	for _, c := range conns {
		go func(c *sockConn) { c.runErr <- c.cl.Run() }(c)
	}

	base := ctr.snapshot()
	rt0, cpu0, w0 := readRuntime(), cpuTime(), time.Now()
	start := int64(time.Since(epoch))
	interval := int64(time.Second / ratePerConn)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		// Stagger the two schedules by half an interval.
		go func(c *sockConn, offset int64) {
			defer wg.Done()
			c.generate(w, epoch, start+offset, interval, moves)
		}(c, int64(i)*interval/socketConns)
	}
	wg.Wait()
	drained := waitResolved(conns, socketDrainTO)
	st.wall, st.cpu, st.rt = time.Since(w0), cpuTime()-cpu0, rt0.to(readRuntime())
	end := ctr.snapshot()

	if !drained {
		m := srv.Metrics()
		st.fail("moves unresolved %v after the paced phase (server: %d submitted, %d completions, %d installed, queue %d, "+
			"%d superseded, %d coalesced, %d snapshot fallbacks, %d write-queue drops)",
			socketDrainTO, m.TotalSubmitted, m.CompletionsTaken, m.Installed, m.QueueLen,
			m.FramesSuperseded, m.FramesCoalesced, m.SnapshotFallbacks, m.WriteQueueDrops)
		for _, c := range conns {
			cm := c.cl.Metrics()
			st.fail("client %d: %d buffered batches, %d dropped batches, %d coalesced, %d superseded, %d snapshot fallbacks, %d stale batches",
				c.avatar, cm.BufferedBatches, cm.DroppedBatches, cm.Coalesced, cm.Superseded, cm.SnapshotFallbacks, cm.StaleBatches)
		}
	}
	// Completions may still be on their way to the server.
	for i := 0; i < 200; i++ {
		if srv.Installed() >= uint64(resolvedCommits(conns)) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, c := range conns {
		c.cl.Close()
		if err := <-c.runErr; err != nil {
			st.fail("client %d: %v", c.avatar, err)
		}
		c.cl.Engine(func(e *core.Client) {
			if own, _, ok := e.Stable().Latest(c.avatar); !ok || (c.lastOwn != nil && !own.Equal(c.lastOwn)) {
				st.fail("client %d: stable avatar %v, last committed %v", c.avatar, own, c.lastOwn)
			}
			if e.QueueLen() != 0 {
				st.fail("client %d: %d moves still queued", c.avatar, e.QueueLen())
			}
		})
		m := c.cl.Metrics()
		st.reconciles += m.Reconciliations
		st.blindWrites += m.AppliedBlind
		st.stableVersions += m.StableVersions
		st.clients++
		for _, b := range append(c.bad, c.genBad...) {
			st.fail("client %d: %s", c.avatar, b)
		}
		st.submitted += c.sent
		st.commits += int(c.commits.Load())
		st.drops += c.drops
		st.lat = append(st.lat, c.lat...)
		st.lag = append(st.lag, c.lag...)
		st.heapPeak = max(st.heapPeak, c.heapPeak)
		st.tracers = append(st.tracers, c.tr)
	}
	st.allSubmitted, st.allCommits = st.submitted, st.commits
	if st.commits+st.drops != st.submitted {
		st.fail("%d moves submitted, %d committed, %d dropped", st.submitted, st.commits, st.drops)
	}
	st.srv = srv.Metrics()
	checkIntegrity(st)
	if got := srv.Installed(); got != uint64(st.commits) {
		st.fail("server installed %d positions, %d moves committed", got, st.commits)
	}
	if st.srv.WriteQueueDrops != 0 {
		st.fail("%d write-queue drops", st.srv.WriteQueueDrops)
	}
	st.upBytes, st.upFrames = end.upBytes-base.upBytes, end.upFrames-base.upFrames
	st.downBytes, st.downFrames = end.downBytes-base.downBytes, end.downFrames-base.downFrames
	st.downWrites = end.downWrites - base.downWrites
	st.batches, st.batchEnvs = end.batches-base.batches, end.batchEnvs-base.batchEnvs
	return st
}

// generate submits moves on a fixed schedule: move k is due at
// first+k·interval whether or not earlier ones have resolved. A late
// generator sends at once; its lateness is recorded and counted in the
// moves' commit latency.
func (c *sockConn) generate(w *manhattan.World, epoch time.Time, first, interval int64, moves int) {
	p, err := newPacer()
	if err != nil {
		c.genBad = append(c.genBad, err.Error())
		return
	}
	defer p.close()
	for k := 0; k < moves; k++ {
		due := first + int64(k)*interval
		if wait := due - int64(time.Since(epoch)); wait > 0 {
			if err := p.sleep(wait); err != nil {
				c.genBad = append(c.genBad, err.Error())
				return
			}
		}
		root := c.tr.begin(spMove, 0, -1)
		c.lag = append(c.lag, float64(int64(time.Since(epoch))-due)/1e3)
		var mv *manhattan.MoveAction
		c.cl.Engine(func(e *core.Client) {
			id := e.NextActionID()
			s := c.tr.begin(spNewMove, reqID(id), root)
			mv, err = w.NewMove(id, c.avatar, e.Optimistic())
			c.tr.end(s)
		})
		if err != nil {
			c.genBad = append(c.genBad, err.Error())
			c.tr.end(root)
			return
		}
		id := mv.ID()
		c.due[id.Seq-1].Store(due)
		s := c.tr.begin(spTransportSubmit, reqID(id), root)
		_, err = c.cl.Submit(mv)
		c.tr.end(s)
		c.tr.end(root)
		if err != nil {
			c.genBad = append(c.genBad, err.Error())
			return
		}
		c.sent++
		if k%512 == 0 {
			c.heapPeak = max(c.heapPeak, heapBytes())
		}
	}
}

// pacer sleeps on a timerfd the runtime's netpoller watches. time.Sleep
// wakes through the netpoller's own timeout, which has millisecond
// granularity while the process is idle, so its overshoot would depend
// on how busy the program under test keeps the scheduler; a thread
// parked in nanosleep would hold a scheduler slot the program needs.
// The timerfd wakes at the kernel timer's precision and holds nothing.
type pacer struct {
	f  *os.File
	fd uintptr
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep blocks the goroutine for ns > 0 nanoseconds.
func (p *pacer) sleep(ns int64) error {
	// struct itimerspec: it_interval {sec, nsec}, it_value {sec, nsec}.
	spec := [4]int64{0, 0, ns / 1e9, ns % 1e9}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }

func (c *sockConn) onCommit(epoch time.Time) func(core.Commit) {
	return func(cm core.Commit) {
		now := int64(time.Since(epoch))
		seq := int(cm.ActID.Seq)
		if seq < 1 || seq > len(c.due) {
			c.bad = append(c.bad, "commit for an unknown action")
		} else {
			c.lat = append(c.lat, float64(now-c.due[seq-1].Load())/1e3)
		}
		for _, wr := range cm.Res.Writes {
			if wr.ID == c.avatar {
				c.lastOwn = wr.Val.Clone()
			}
		}
		c.commits.Add(1)
		c.resolved.Add(1)
	}
}

// waitResolved waits until every submitted move has committed or
// dropped.
func waitResolved(conns []*sockConn, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for _, c := range conns {
			done = done && c.resolved.Load() == int64(c.sent)
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func resolvedCommits(conns []*sockConn) int {
	n := 0
	for _, c := range conns {
		n += int(c.commits.Load())
	}
	return n
}

// wireCounter counts the framed bytes crossing the server's sockets.
// Upstream frames are parsed from what the server reads, downstream
// frames from what it writes; a downstream write carrying several
// frames is a coalesced write.
type wireCounter struct {
	mu                    sync.Mutex
	upBytes, upFrames     int64
	downBytes, downFrames int64
	downWrites            int64
	batches, batchEnvs    int64
}

type wireTotals struct {
	upBytes, upFrames, downBytes, downFrames, downWrites, batches, batchEnvs int64
}

func (w *wireCounter) snapshot() wireTotals {
	w.mu.Lock()
	defer w.mu.Unlock()
	return wireTotals{w.upBytes, w.upFrames, w.downBytes, w.downFrames, w.downWrites, w.batches, w.batchEnvs}
}

type countingListener struct {
	net.Listener
	ctr *wireCounter
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, ctr: l.ctr}, nil
}

type countingConn struct {
	net.Conn
	ctr      *wireCounter
	up, down frameParser
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.ctr.mu.Lock()
		c.ctr.upBytes += int64(n)
		frames, _, _ := c.up.feed(p[:n])
		c.ctr.upFrames += frames
		c.ctr.mu.Unlock()
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.ctr.mu.Lock()
		c.ctr.downBytes += int64(n)
		c.ctr.downWrites++
		frames, batches, envs := c.down.feed(p[:n])
		c.ctr.downFrames += frames
		c.ctr.batches += batches
		c.ctr.batchEnvs += envs
		c.ctr.mu.Unlock()
	}
	return n, err
}

// frameParser follows wire frame boundaries across arbitrary read and
// write splits: a 5-byte header (u32 payload length, u8 type) then the
// payload. For Batch frames it also reads the envelope count at payload
// offset 25.
type frameParser struct {
	hdr  [5 + 29]byte
	have int // header bytes buffered for the current frame
	skip int // payload bytes still to pass over
}

// feed consumes p and returns the frames started in it, and among them
// the batches and their envelope counts.
func (f *frameParser) feed(p []byte) (frames, batches, envs int64) {
	for len(p) > 0 {
		if f.skip > 0 {
			n := min(f.skip, len(p))
			f.skip -= n
			p = p[n:]
			continue
		}
		need := 5
		if f.have >= 5 && wire.MsgType(f.hdr[4]) == wire.TypeBatch {
			need = len(f.hdr)
		}
		n := min(need-f.have, len(p))
		copy(f.hdr[f.have:], p[:n])
		f.have += n
		p = p[n:]
		if f.have < 5 {
			continue
		}
		size := int(binary.LittleEndian.Uint32(f.hdr[:4]))
		if f.have == 5 {
			frames++
			if wire.MsgType(f.hdr[4]) == wire.TypeBatch && size >= 29 {
				continue // buffer the batch header too
			}
			f.have, f.skip = 0, size
			continue
		}
		if f.have < len(f.hdr) {
			continue
		}
		batches++
		envs += int64(binary.LittleEndian.Uint32(f.hdr[5+25:]))
		f.have, f.skip = 0, size-29
	}
	return frames, batches, envs
}
