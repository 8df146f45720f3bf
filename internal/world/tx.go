package world

import "slices"

// Write is one recorded write: the pair (x, v) of a "write x ← v"
// performed by an action (Algorithm 1, step 4). Completion messages carry
// these records to the server, which installs them into ζS.
type Write struct {
	ID  ObjectID
	Val Value
}

// View is a point-in-time read interface over a store. Actions execute
// against a View through a Tx.
type View interface {
	Read(id ObjectID) (Value, bool)
}

// StateView adapts a State to a View.
type StateView struct{ S *State }

// Read returns the current value of id.
func (v StateView) Read(id ObjectID) (Value, bool) { return v.S.Get(id) }

// AtView reads an MVStore as of a serial position.
type AtView struct {
	M   *MVStore
	Seq uint64
}

// Read returns the value of id as of Seq.
func (v AtView) Read(id ObjectID) (Value, bool) { return v.M.ReadAt(id, v.Seq) }

// LatestView reads the newest versions of an MVStore.
type LatestView struct{ M *MVStore }

// Read returns the newest value of id.
func (v LatestView) Read(id ObjectID) (Value, bool) {
	val, _, ok := v.M.Latest(id)
	return val, ok
}

// Tx is a tracked transaction: it records the read set and buffers writes
// (read-your-writes semantics) so an action's actual accesses can be
// checked against its declared RS(a)/WS(a) and its effect extracted as a
// list of Writes.
//
// A Tx holds no maps. Reads are appended to a log that ReadSet sorts and
// deduplicates only when asked (strict-mode access checks and tests). A
// buffered write is found by scanning the write log: a move writes one
// object, and the largest write logs — closure blind writes, bounded by
// the closure's read set — arrive in ascending id order, which the
// maxWrite fast path below turns into plain appends. Reset therefore
// costs only slice truncation, whatever the largest run it ever held.
type Tx struct {
	view     View
	reads    []ObjectID // every id read or written, in access order
	writeLog []Write    // one record per written id, in first-write order
	// maxWrite is the largest id in writeLog (meaningful only when the
	// log is non-empty): an id above it cannot be buffered, so Read and
	// Write skip the scan for it.
	maxWrite ObjectID
	missed   []ObjectID // reads of unknown objects
}

// NewTx returns a transaction reading from view.
func NewTx(view View) *Tx {
	return &Tx{view: view}
}

// Reset re-arms tx for a fresh run against view, keeping its logs and
// value buffers for reuse. Any Result or Writes slice taken from the
// previous run aliases those buffers, so the caller must have deep-
// copied what it intends to keep (Result.CloneInto) before resetting.
// The client engine evaluates every stable and optimistic action through
// such reused transactions instead of allocating a Tx — and a value
// clone per write — for each.
func (tx *Tx) Reset(view View) {
	tx.view = view
	tx.reads = tx.reads[:0]
	tx.writeLog = tx.writeLog[:0]
	tx.missed = tx.missed[:0]
}

// buffered returns the write-log index of id's buffered write, or -1.
func (tx *Tx) buffered(id ObjectID) int {
	if len(tx.writeLog) == 0 || id > tx.maxWrite {
		return -1
	}
	for i := range tx.writeLog {
		if tx.writeLog[i].ID == id {
			return i
		}
	}
	return -1
}

// Read returns the value of id, preferring the transaction's own buffered
// write. The read is recorded. A read of an unknown object returns
// (nil, false) and is recorded as missed — the signal an action uses to
// detect a fatal conflict and abort as a no-op (Section III-A, Bayou-style
// conflict checks).
func (tx *Tx) Read(id ObjectID) (Value, bool) {
	tx.reads = append(tx.reads, id)
	if i := tx.buffered(id); i >= 0 {
		return tx.writeLog[i].Val, true
	}
	v, ok := tx.view.Read(id)
	if !ok {
		tx.missed = append(tx.missed, id)
	}
	return v, ok
}

// Write buffers v as the new value of id. Per the paper's convention
// RS(a) ⊇ WS(a), a write also records a read. The buffered value is a
// copy of v, stored into a buffer recovered from a previous run when the
// transaction has been Reset.
func (tx *Tx) Write(id ObjectID, v Value) {
	tx.reads = append(tx.reads, id)
	if i := tx.buffered(id); i >= 0 {
		tx.writeLog[i].Val = append(tx.writeLog[i].Val[:0], v...)
		return
	}
	if len(tx.writeLog) == 0 || id > tx.maxWrite {
		tx.maxWrite = id
	}
	if n := len(tx.writeLog); n < cap(tx.writeLog) {
		// Reslice into a record left over from before the last Reset and
		// overwrite it in place, reusing its value buffer.
		tx.writeLog = tx.writeLog[:n+1]
		w := &tx.writeLog[n]
		w.ID = id
		w.Val = append(w.Val[:0], v...)
		return
	}
	tx.writeLog = append(tx.writeLog, Write{ID: id, Val: v.Clone()})
}

// ReadSet returns the ids read (including written ids), sorted.
func (tx *Tx) ReadSet() IDSet {
	return NewIDSet(tx.reads...)
}

// WriteSet returns the ids written, sorted.
func (tx *Tx) WriteSet() IDSet {
	ids := make(IDSet, len(tx.writeLog))
	for i, w := range tx.writeLog {
		ids[i] = w.ID
	}
	slices.Sort(ids)
	return ids
}

// Writes returns the buffered writes in first-write order, with later
// writes to the same object collapsed into the first record.
func (tx *Tx) Writes() []Write { return tx.writeLog }

// Missed returns ids whose reads found no value, in read order.
func (tx *Tx) Missed() []ObjectID { return tx.missed }
