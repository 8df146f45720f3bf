package main

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"
	"time"

	"seve/internal/action"
)

// spanName identifies the public call a span wraps. Every name belongs
// to one layer: the prefix before the dot.
type spanName uint8

const (
	spRound            spanName = iota // gen: one fleet round (root)
	spMove                             // gen: one paced socket move (root)
	spNewMove                          // manhattan.World.NewMove
	spClientSubmit                     // core.Client.Submit
	spClientBatch                      // core.Client.HandleMsg on a Batch
	spClientMsg                        // core.Client.HandleMsg on anything else
	spEncode                           // wire.AppendFrame
	spDecode                           // wire.Decode
	spEngineSubmit                     // core.Engine.HandleMsg on a Submit
	spEngineCompletion                 // core.Engine.HandleMsg on a Completion
	spEngineFlush                      // core.Flusher.Flush
	spEngineTick                       // core.Engine.Tick
	spDurableClose                     // durable.Store.Close
	spDial                             // transport.Dial
	spTransportSubmit                  // transport.Client.Submit
	numSpans
)

var spanNames = [numSpans]string{
	"gen.round", "gen.move", "manhattan.newmove",
	"client.submit", "client.batch", "client.msg",
	"wire.encode", "wire.decode",
	"engine.submit", "engine.completion", "engine.flush", "engine.tick",
	"durable.close", "transport.dial", "transport.submit",
}

// span is one call into a layer: start and end in nanoseconds since the
// run's epoch, the request (action) it served, and the enclosing span.
type span struct {
	start, end int64
	// req is the action ID as client<<32|seq; 0 when the call serves
	// several actions at once (flushes, ticks, multi-action batches).
	req    uint64
	parent int32 // index of the enclosing span in the same tracer; -1 for a root
	name   spanName
}

// tracer records spans from one goroutine. A disabled tracer records
// nothing and reads no clock, so untraced runs pay only the nil checks.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool, epoch time.Time) *tracer {
	return &tracer{on: on, epoch: epoch}
}

func (t *tracer) begin(n spanName, req uint64, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), req: req, parent: parent, name: n})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

func reqID(id action.ID) uint64 { return uint64(uint32(id.Client))<<32 | uint64(id.Seq) }

// selfTimes sums each span name's self time — its duration minus the
// time its direct children cover — and counts its calls.
type selfTimes struct {
	ns    [numSpans]int64
	calls [numSpans]int64
}

func (st *selfTimes) add(t *tracer) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		st.ns[s.name] += s.end - s.start - child[i]
		st.calls[s.name]++
	}
}

// meanUs is the mean self time per call of one span name in µs.
func (st *selfTimes) meanUs(n spanName) float64 {
	return ratio(float64(st.ns[n])/1e3, float64(st.calls[n]))
}

// totalUs is the summed self time of the given span names in µs.
func (st *selfTimes) totalUs(ns ...spanName) float64 {
	var sum int64
	for _, n := range ns {
		sum += st.ns[n]
	}
	return float64(sum) / 1e3
}

// writeSpans writes every tracer's spans to path. Format, little
// endian: the magic "SEVESPAN1"; a name table (u8 count, then per name
// a u8 length and its bytes); then per tracer a u32 span count followed
// by its spans as (u8 name, i64 start ns, i64 end ns, u64 request,
// i32 parent index within the tracer).
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("SEVESPAN1")
	w.WriteByte(byte(numSpans))
	for _, n := range spanNames {
		w.WriteByte(byte(len(n)))
		w.WriteString(n)
	}
	var rec [29]byte
	for _, t := range tracers {
		binary.Write(w, binary.LittleEndian, uint32(len(t.spans)))
		for _, s := range t.spans {
			rec[0] = byte(s.name)
			binary.LittleEndian.PutUint64(rec[1:], uint64(s.start))
			binary.LittleEndian.PutUint64(rec[9:], uint64(s.end))
			binary.LittleEndian.PutUint64(rec[17:], s.req)
			binary.LittleEndian.PutUint32(rec[25:], uint32(s.parent))
			w.Write(rec[:])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
